package machine

// Tests for the host swap/reclaim tier (swap.go, DESIGN.md §10):
// demotion-on-swap, refault charging, readahead swap-in, balloon-first
// pressure response, direct reclaim, DiscardBacking, and mutation
// self-tests proving the swap audits actually catch the corruption
// they claim to.

import (
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// hugeBackedVM builds a machine with one VM whose EPT maps the first
// guest region huge (basePolicy guest so the guest table stays 4K and
// the huge state lives only in the EPT, the layer swap attacks).
func hugeBackedVM(t *testing.T) (*Machine, *VM, *VMA) {
	t.Helper()
	m, vm := newTestMachine(basePolicy{}, hugePolicy{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for p := uint64(0); p < 2*mem.PagesPerHuge; p++ {
		vm.Access(v.Start + p*mem.PageSize)
	}
	if vm.EPT.Table.Mapped2M() != 2 {
		t.Fatalf("setup: EPT huge mappings = %d, want 2", vm.EPT.Table.Mapped2M())
	}
	return m, vm, v
}

func TestSwapOutRegionDemotesFirst(t *testing.T) {
	_, vm, _ := hugeBackedVM(t)
	free := vm.EPT.Buddy.FreePages()
	n := vm.EPT.SwapOutRegion(0, int(mem.PagesPerHuge))
	if n != int(mem.PagesPerHuge) {
		t.Fatalf("swapped out %d pages, want %d", n, mem.PagesPerHuge)
	}
	// Demotion-on-swap: the huge mapping is gone, not just shrunk.
	if vm.EPT.Table.Mapped2M() != 1 {
		t.Fatalf("EPT still maps %d huge regions, want 1", vm.EPT.Table.Mapped2M())
	}
	if vm.EPT.Stats.Splits != 1 {
		t.Fatalf("Splits = %d, want 1", vm.EPT.Stats.Splits)
	}
	if got := vm.EPT.SwappedPages(); got != mem.PagesPerHuge {
		t.Fatalf("SwappedPages = %d, want %d", got, mem.PagesPerHuge)
	}
	if vm.EPT.Buddy.FreePages() != free+mem.PagesPerHuge {
		t.Fatalf("evicted frames not returned to the allocator")
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after swap-out: %v", vs)
	}
}

func TestSwapRefaultPaysSwapInCost(t *testing.T) {
	_, vm, v := hugeBackedVM(t)
	vm.EPT.SwapOutRegion(0, int(mem.PagesPerHuge))
	if !vm.EPT.Swapped(0) {
		t.Fatal("GPA 0 not marked swapped")
	}
	// Baseline: fault cost of a page that was never swapped (region 1,
	// swapped region is region 0 — guest frames are allocated in VMA
	// order here, so v.Start+HugeSize lands in guest frame region 1).
	vm.EPT.SwapOutRegion(1, 1) // swap exactly one page of region 1
	before := vm.EPT.Stats.SwappedInPages
	cost := vm.Access(v.Start) // refaults GPA 0 page 0
	if vm.EPT.Stats.SwappedInPages == before {
		t.Fatal("access did not swap anything in")
	}
	if cost < vm.EPT.Costs.SwapInPage {
		t.Fatalf("refault cost %d cycles < SwapInPage %d", cost, vm.EPT.Costs.SwapInPage)
	}
	if vm.EPT.Swapped(0) {
		t.Fatal("page still marked swapped after refault")
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after refault: %v", vs)
	}
}

func TestDiscardBackingFreesResidentAndSwapped(t *testing.T) {
	_, vm, _ := hugeBackedVM(t)
	// Region 0 stays huge-resident; region 1 is swapped out so the
	// discard must drop swap entries, not just mappings.
	vm.EPT.SwapOutRegion(1, int(mem.PagesPerHuge))
	free := vm.EPT.Buddy.FreePages()
	freed := vm.EPT.DiscardBacking(0, 2*mem.HugeSize)
	if freed != mem.PagesPerHuge {
		t.Fatalf("freed %d host pages, want %d (region 0 only; region 1 was swapped)",
			freed, mem.PagesPerHuge)
	}
	if vm.EPT.Buddy.FreePages() != free+mem.PagesPerHuge {
		t.Fatal("allocator does not reflect the discard")
	}
	if vm.EPT.SwappedPages() != 0 {
		t.Fatalf("swap entries survived the discard: %d", vm.EPT.SwappedPages())
	}
	if vm.EPT.Stats.SwapDroppedPages != mem.PagesPerHuge {
		t.Fatalf("SwapDroppedPages = %d, want %d", vm.EPT.Stats.SwapDroppedPages, mem.PagesPerHuge)
	}
	if vm.EPT.MappedPages() != 0 {
		t.Fatalf("EPT still maps %d pages after full discard", vm.EPT.MappedPages())
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after discard: %v", vs)
	}
}

func TestDiscardBackingDemotesPartialHuge(t *testing.T) {
	_, vm, _ := hugeBackedVM(t)
	// Discard only the second half of huge region 0: the mapping must
	// be demoted, half its pages freed, the other half kept resident.
	freed := vm.EPT.DiscardBacking(mem.HugeSize/2, mem.HugeSize)
	if freed != mem.PagesPerHuge/2 {
		t.Fatalf("freed %d pages, want %d", freed, mem.PagesPerHuge/2)
	}
	if vm.EPT.Table.Mapped2M() != 1 {
		t.Fatalf("Mapped2M = %d, want 1 (region 1 untouched)", vm.EPT.Table.Mapped2M())
	}
	if _, _, ok := vm.EPT.Table.Lookup(0); !ok {
		t.Fatal("kept half of the demoted region lost its mapping")
	}
	if _, _, ok := vm.EPT.Table.Lookup(mem.HugeSize / 2); ok {
		t.Fatal("discarded half still mapped")
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after partial discard: %v", vs)
	}
}

// fakeBalloon is a BalloonDriver stub recording the asks it received.
// Inflate pretends every requested page freed backing; Deflate returns
// everything held.
type fakeBalloon struct {
	inflated uint64
	asks     []uint64
}

func (b *fakeBalloon) Inflate(guestPages uint64) uint64 {
	b.asks = append(b.asks, guestPages)
	b.inflated += guestPages
	return guestPages
}
func (b *fakeBalloon) Deflate(guestPages uint64) uint64 {
	n := min(guestPages, b.inflated)
	b.inflated -= n
	return n
}
func (b *fakeBalloon) Inflated() uint64 { return b.inflated }

func TestSwapTickPrefersBalloonOverSwap(t *testing.T) {
	m, vm, _ := hugeBackedVM(t)
	bal := &fakeBalloon{}
	vm.Balloon = bal
	// Arm with watermarks forcing pressure: everything below the total
	// is "low", so the first tick must respond.
	total := m.HostBuddy.TotalPages()
	m.EnableSwap(SwapConfig{LowWatermark: total, HighWatermark: total, BalloonBudget: 1 << 20})
	m.Tick()
	if len(bal.asks) == 0 {
		t.Fatal("pressure tick never asked the balloon")
	}
	// The balloon satisfied the full deficit, so nothing was swapped.
	if vm.EPT.Stats.SwappedOutPages != 0 {
		t.Fatalf("swapped %d pages although the balloon covered the deficit",
			vm.EPT.Stats.SwappedOutPages)
	}
}

func TestSwapTickFallsBackToSwapOut(t *testing.T) {
	m, vm, _ := hugeBackedVM(t)
	// No balloon installed: the deficit must be met by swap-out alone.
	total := m.HostBuddy.TotalPages()
	m.EnableSwap(SwapConfig{LowWatermark: total, HighWatermark: total})
	m.Tick()
	if vm.EPT.Stats.SwappedOutPages == 0 {
		t.Fatal("pressure tick with no balloons swapped nothing out")
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after pressure tick: %v", vs)
	}
}

func TestSwapTickDeflatesWhenComfortable(t *testing.T) {
	m, vm := newTestMachine(basePolicy{}, basePolicy{})
	bal := &fakeBalloon{inflated: 64}
	vm.Balloon = bal
	// Tiny watermarks: the mostly-empty host is comfortably above
	// 2×high, so the tick's only job is giving ballooned memory back.
	m.EnableSwap(SwapConfig{LowWatermark: 1, HighWatermark: 1})
	for i := 0; i < 10 && bal.inflated > 0; i++ {
		m.Tick()
	}
	if bal.inflated != 0 {
		t.Fatalf("balloon still holds %d pages after comfortable ticks", bal.inflated)
	}
}

func TestDirectReclaimRescuesDemandFault(t *testing.T) {
	// Host exactly as large as the guest: after the first VMA is fully
	// backed, backing a second page must either panic (no swap tier) or
	// reclaim synchronously (tier armed).
	m := NewMachine(2*mem.PagesPerHuge, DefaultCosts())
	vm := m.AddVM(4*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	m.EnableSwap(SwapConfig{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for p := uint64(0); p < 2*mem.PagesPerHuge; p++ {
		vm.Access(v.Start + p*mem.PageSize)
	}
	if m.HostBuddy.FreePages() != 0 {
		t.Fatalf("setup: host not exhausted (%d free)", m.HostBuddy.FreePages())
	}
	v2 := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v2.Start) // would panic without direct reclaim
	if vm.EPT.Stats.SwappedOutPages == 0 {
		t.Fatal("direct reclaim left no swap trace")
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after direct reclaim: %v", vs)
	}
}

func TestEnableSwapTwicePanics(t *testing.T) {
	m, _ := newTestMachine(basePolicy{}, basePolicy{})
	m.EnableSwap(SwapConfig{})
	defer func() {
		if recover() == nil {
			t.Fatal("second EnableSwap did not panic")
		}
	}()
	m.EnableSwap(SwapConfig{})
}

// --- audit mutation self-tests: prove the swap invariants detect the
// corruption they claim to (same discipline as audit_test.go) ---

func TestAuditCatchesSwappedButResident(t *testing.T) {
	_, vm, _ := hugeBackedVM(t)
	vm.EPT.SwapOutRegion(0, 4)
	// Corrupt: mark a still-mapped page of region 1 as swapped without
	// unmapping it. Fix up the cumulative counter so only the
	// exactly-once invariant fires, not the conservation one.
	vm.EPT.swapped[mem.PagesPerHuge] = true
	vm.EPT.Stats.SwappedOutPages++
	expectViolations(t, vm.EPT.checkSwapInvariants(), "swap-resident")
}

func TestAuditCatchesSwapCountDrift(t *testing.T) {
	_, vm, _ := hugeBackedVM(t)
	vm.EPT.SwapOutRegion(0, 4)
	vm.EPT.Stats.SwappedOutPages++ // out ≠ in + dropped + pending
	expectViolations(t, vm.EPT.checkSwapInvariants(), "swap-count")
}

func TestLruHeatPolicyPicksColdestFirst(t *testing.T) {
	_, vm, v := hugeBackedVM(t)
	// Region 1 stays hot, region 0 cools completely.
	for vm.EPT.Heat(0) > 0 {
		vm.EPT.DecayHeat()
	}
	vm.Access(v.Start + mem.HugeSize) // reheat region 1
	pol := NewPressurePolicy("")
	victims := pol.Victims(vm.EPT, 1)
	if len(victims) != 1 || victims[0] != 0 {
		t.Fatalf("victims = %v, want [0] (the cold region)", victims)
	}
}

// TestPressureRegistryConcurrentQueries runs every registry query from
// concurrent goroutines, as parallel grid cells building
// overcommitted machines do; under -race it fails if the registry's
// freeze flag is written without synchronisation.
func TestPressureRegistryConcurrentQueries(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if NewPressurePolicy("").Name() != DefaultPressurePolicy {
				t.Error("default pressure policy has the wrong name")
			}
			if !ValidPressurePolicy(DefaultPressurePolicy) || ValidPressurePolicy("no-such-policy") {
				t.Error("ValidPressurePolicy disagrees with the registry")
			}
			if len(PressurePolicyNames()) == 0 {
				t.Error("PressurePolicyNames is empty")
			}
		}()
	}
	wg.Wait()
}
