package machine

import (
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// basePolicy maps everything with base pages and does no background work.
type basePolicy struct{}

func (basePolicy) Name() string                          { return "base" }
func (basePolicy) OnFault(*Layer, uint64, *VMA) Decision { return Decision{Kind: mem.Base} }
func (basePolicy) Tick(*Layer)                           {}

// hugePolicy always attempts huge mappings.
type hugePolicy struct{}

func (hugePolicy) Name() string                          { return "huge" }
func (hugePolicy) OnFault(*Layer, uint64, *VMA) Decision { return Decision{Kind: mem.Huge} }
func (hugePolicy) Tick(*Layer)                           {}

const testGuestPages = 64 * 1024 // 256 MiB guest
const testHostPages = 128 * 1024 // 512 MiB host

func newTestMachine(gp, hp Policy) (*Machine, *VM) {
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(testGuestPages, gp, hp, tlb.DefaultConfig())
	return m, vm
}

func TestVMASpace(t *testing.T) {
	s := NewAddressSpace(0x1000)
	v1 := s.MMap(10*mem.PageSize, 0)
	v2 := s.MMap(mem.HugeSize, 3)
	if v1.Start != 0x1000 || v1.Pages() != 10 {
		t.Fatalf("v1 = %v", v1)
	}
	if v2.Start != v1.End()+16*mem.HugeSize+3*mem.PageSize {
		t.Fatalf("v2 placement = %#x", v2.Start)
	}
	if s.Find(v1.Start+mem.PageSize) != v1 {
		t.Error("Find missed v1")
	}
	if s.Find(v1.End()) != nil {
		t.Error("Find matched beyond end")
	}
	if len(s.VMAs()) != 2 {
		t.Errorf("VMAs = %d", len(s.VMAs()))
	}
	s.Remove(v1)
	if s.Find(v1.Start) != nil || len(s.VMAs()) != 1 {
		t.Error("Remove failed")
	}
	if v2.String() == "" {
		t.Error("empty VMA String")
	}
}

func TestHugeRegions(t *testing.T) {
	s := NewAddressSpace(mem.HugeSize + mem.PageSize) // unaligned start
	a := s.MMap(3*mem.HugeSize, 0)
	// The VMA covers [2 MiB+4K, 8 MiB+4K): huge regions 1..4 overlap
	// it and regions 2 and 3 lie wholly inside it.
	if got := s.HugeRegions(); !slices.Equal(got, []uint64{2 * mem.HugeSize, 3 * mem.HugeSize}) {
		t.Fatalf("huge regions = %#x", got)
	}
	if n := testing.AllocsPerRun(100, func() { s.HugeRegions() }); n != 0 {
		t.Fatalf("listing allocated %v times", n)
	}
	// MMap and Remove rebuild the listing. The second VMA lands after
	// a 16-region guard gap, at [40 MiB+4K, 44 MiB+4K), which wholly
	// holds region 21 only; its listing follows the first VMA's, and
	// removing the first leaves it alone.
	b := s.MMap(2*mem.HugeSize, 0)
	if b.Start != 20*mem.HugeSize+mem.PageSize {
		t.Fatalf("second VMA at %#x", b.Start)
	}
	bRegions := []uint64{21 * mem.HugeSize}
	if got := s.HugeRegions(); !slices.Equal(got, append([]uint64{2 * mem.HugeSize, 3 * mem.HugeSize}, bRegions...)) {
		t.Fatalf("after a second MMap: huge regions = %#x", got)
	}
	s.Remove(a)
	if got := s.HugeRegions(); !slices.Equal(got, bRegions) {
		t.Fatalf("after Remove: huge regions = %#x, want %#x", got, bRegions)
	}
}

func TestAccessBaseOnly(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	c1 := vm.Access(v.Start)
	if c1 == 0 {
		t.Fatal("first access free")
	}
	// Faults at both layers happened.
	if vm.Guest.Stats.Faults != 1 || vm.EPT.Stats.Faults != 1 {
		t.Fatalf("faults = %d/%d", vm.Guest.Stats.Faults, vm.EPT.Stats.Faults)
	}
	// Second access to same page: no faults, TLB hit.
	c2 := vm.Access(v.Start)
	if c2 >= c1 {
		t.Fatalf("second access (%d) not cheaper than first (%d)", c2, c1)
	}
	if vm.TLB.Stats().Hits != 1 {
		t.Fatalf("TLB hits = %d", vm.TLB.Stats().Hits)
	}
	a := vm.Alignment()
	if a.GuestHuge != 0 || a.HostHuge != 0 || a.Rate() != 0 {
		t.Fatalf("alignment = %+v", a)
	}
}

func TestAccessWellAligned(t *testing.T) {
	_, vm := newTestMachine(hugePolicy{}, hugePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	va := v.Start // huge-aligned (base space starts on huge boundary)
	vm.Access(va)
	if vm.Guest.Stats.HugeFaults != 1 || vm.EPT.Stats.HugeFaults != 1 {
		t.Fatalf("huge faults = %d/%d", vm.Guest.Stats.HugeFaults, vm.EPT.Stats.HugeFaults)
	}
	a := vm.Alignment()
	if a.GuestHuge != 1 || a.HostHuge != 1 || a.Aligned != 1 {
		t.Fatalf("alignment = %+v", a)
	}
	if a.Rate() != 1 {
		t.Fatalf("rate = %v", a.Rate())
	}
	// Access anywhere in the region hits the huge TLB entry.
	vm.TLB.ResetStats()
	vm.Access(va + 300*mem.PageSize)
	if vm.TLB.Stats().Hits != 1 {
		t.Fatalf("expected huge-entry hit, stats = %+v", vm.TLB.Stats())
	}
}

func TestMisalignedSplinters(t *testing.T) {
	// Guest huge, host base: every 4 KiB page needs its own TLB entry.
	_, vm := newTestMachine(hugePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	vm.Access(v.Start)
	vm.Access(v.Start + mem.PageSize)
	st := vm.TLB.Stats()
	if st.Insert2M != 0 {
		t.Fatalf("misaligned region inserted a 2M entry: %+v", st)
	}
	if st.Insert4K != 2 {
		t.Fatalf("expected 2 base insertions, got %+v", st)
	}
	a := vm.Alignment()
	if a.GuestHuge != 1 || a.Aligned != 0 {
		t.Fatalf("alignment = %+v", a)
	}
}

func TestHugeFaultFallbackNearVMAEdge(t *testing.T) {
	_, vm := newTestMachine(hugePolicy{}, basePolicy{})
	// A VMA smaller than a huge page can never be huge-mapped.
	v := vm.Guest.Space.MMap(10*mem.PageSize, 1)
	vm.Access(v.Start)
	if vm.Guest.Stats.HugeFaults != 0 || vm.Guest.Stats.FallbackFaults != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestHugeFallsBackWhenRegionPartiallyMapped(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	// Start with base faults, then switch policy to huge.
	vm := m.AddVM(testGuestPages, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	vm.Access(v.Start)
	vm.Guest.Policy = hugePolicy{}
	vm.Access(v.Start + mem.PageSize) // same region: huge must fall back
	if vm.Guest.Stats.FallbackFaults != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("region became huge despite partial mapping")
	}
}

func TestPromoteInPlace(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	// Touch all 512 pages; guest buddy allocates lowest-first, so the
	// frames are contiguous and aligned (pristine allocator).
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	info := vm.Guest.Table.InspectCollapse(v.Start)
	if info.Present != mem.PagesPerHuge || !info.Contiguous {
		t.Fatalf("InspectCollapse = %+v", info)
	}
	if err := vm.Guest.PromoteInPlace(v.Start); err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Stats.InPlacePromotions != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("no huge mapping after promotion")
	}
	// Stall queued for the foreground, drained in quanta.
	if got := vm.Guest.TakeStall(); got < DefaultCosts().Shootdown/2 {
		t.Fatalf("stall queued = %d, want >= %d", got, DefaultCosts().Shootdown/2)
	}
}

func TestPromoteMigrate(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch scattered pages across two regions so frames are NOT
	// contiguous per region.
	for i := uint64(0); i < 100; i++ {
		vm.Access(v.Start + i*2*mem.PageSize)
	}
	info := vm.Guest.Table.InspectCollapse(v.Start)
	if info.Contiguous {
		t.Fatal("expected non-contiguous placement")
	}
	freeBefore := vm.Guest.Buddy.FreePages()
	if err := vm.Guest.PromoteMigrate(v.Start, nil); err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Stats.MigrationPromotions != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("no huge mapping after migration")
	}
	// Old frames freed, 512 new consumed. All 100 touched pages sit in
	// region 0 (stride 2 pages stays under 512 pages), so 100 frames
	// come back.
	wantFree := freeBefore - mem.PagesPerHuge + 100
	if vm.Guest.Buddy.FreePages() != wantFree {
		t.Fatalf("FreePages = %d, want %d", vm.Guest.Buddy.FreePages(), wantFree)
	}
	if vm.Guest.Stats.MigratedPages != 100 {
		t.Fatalf("MigratedPages = %d", vm.Guest.Stats.MigratedPages)
	}
	// Idempotent on already-huge region.
	if err := vm.Guest.PromoteMigrate(v.Start, nil); err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Stats.MigrationPromotions != 1 {
		t.Fatal("second promote did work")
	}
}

func TestPromoteMigrateOutsideVMA(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	vm.Guest.Space.MMap(10*mem.PageSize, 1)
	if err := vm.Guest.PromoteMigrate(0, nil); err == nil {
		t.Fatal("promotion outside VMA succeeded")
	}
	if vm.Guest.Stats.FailedPromotions != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestDemote(t *testing.T) {
	_, vm := newTestMachine(hugePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	if err := vm.Guest.Demote(v.Start); err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Table.Mapped2M() != 0 || vm.Guest.Table.Mapped4K() != mem.PagesPerHuge {
		t.Fatal("demote did not split")
	}
	if vm.Guest.Stats.Splits != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	if err := vm.Guest.Demote(v.Start); err == nil {
		t.Fatal("double demote succeeded")
	}
}

func TestDedupPage(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	if err := vm.Guest.DedupPage(v.Start); err != nil {
		t.Fatal(err)
	}
	if vm.Guest.Stats.DedupedPages != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	// Refault pays CoW.
	costs := DefaultCosts()
	c := vm.Access(v.Start)
	if c < costs.FaultBase+costs.CoWFault {
		t.Fatalf("refault cost %d lacks CoW charge", c)
	}
	if vm.Guest.Stats.CoWRefaults != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	if err := vm.Guest.DedupPage(v.End() + mem.PageSize); err == nil {
		t.Fatal("dedup of unmapped page succeeded")
	}
}

func TestUnmapVMAFreesEverything(t *testing.T) {
	_, vm := newTestMachine(hugePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	vm.Access(v.Start)                // huge mapping
	vm.Guest.Policy = basePolicy{}    // switch: next region maps base
	vm.Access(v.Start + mem.HugeSize) // one base page
	free := vm.Guest.Buddy.FreePages()
	vm.Guest.UnmapVMA(v)
	wantBack := uint64(mem.PagesPerHuge + 1)
	if vm.Guest.Buddy.FreePages() != free+wantBack {
		t.Fatalf("FreePages = %d, want %d", vm.Guest.Buddy.FreePages(), free+wantBack)
	}
	if vm.Guest.Table.MappedBytes() != 0 {
		t.Fatal("mappings survive UnmapVMA")
	}
	if vm.Guest.Space.Find(v.Start) != nil {
		t.Fatal("VMA survives UnmapVMA")
	}
}

type claimingPolicy struct {
	basePolicy
	claimed []uint64
}

func (p *claimingPolicy) OnFreeHugeBlock(L *Layer, frameBase uint64) bool {
	p.claimed = append(p.claimed, frameBase)
	return true
}

func TestFreeObserverClaimsHugeBlocks(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	pol := &claimingPolicy{}
	vm := m.AddVM(testGuestPages, pol, basePolicy{}, tlb.DefaultConfig())
	vm.Guest.Policy = pol
	// Build a huge mapping via explicit promotion.
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Guest.Policy = hugePolicy{}
	vm.Access(v.Start)
	vm.Guest.Policy = pol
	free := vm.Guest.Buddy.FreePages()
	vm.Guest.UnmapVMA(v)
	if len(pol.claimed) != 1 {
		t.Fatalf("claimed = %v", pol.claimed)
	}
	// Claimed block NOT returned to the buddy.
	if vm.Guest.Buddy.FreePages() != free {
		t.Fatalf("FreePages changed: %d -> %d", free, vm.Guest.Buddy.FreePages())
	}
}

func TestResetGuestProcess(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, hugePolicy{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	vm.Access(v.Start)
	eptHuge := vm.EPT.Table.Mapped2M()
	if eptHuge == 0 {
		t.Fatal("EPT not huge-backed")
	}
	vm.ResetGuestProcess()
	if vm.Guest.Table.MappedBytes() != 0 {
		t.Fatal("guest table survives reset")
	}
	if vm.Guest.Buddy.FreePages() != testGuestPages {
		t.Fatalf("guest frames leaked: %d", vm.Guest.Buddy.FreePages())
	}
	// EPT backing persists across the reset.
	if vm.EPT.Table.Mapped2M() != eptHuge {
		t.Fatal("EPT state lost on guest reset")
	}
	if len(vm.Guest.Space.VMAs()) != 0 {
		t.Fatal("VMAs survive reset")
	}
}

func TestHeat(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	vm.Access(v.Start + mem.PageSize)
	if vm.Guest.Heat(v.Start) != 2 {
		t.Fatalf("heat = %d", vm.Guest.Heat(v.Start))
	}
	vm.Guest.DecayHeat()
	if vm.Guest.Heat(v.Start) != 1 {
		t.Fatalf("decayed heat = %d", vm.Guest.Heat(v.Start))
	}
	vm.Guest.DecayHeat()
	if vm.Guest.Heat(v.Start) != 0 {
		t.Fatalf("heat after full decay = %d", vm.Guest.Heat(v.Start))
	}
}

func TestMachineTick(t *testing.T) {
	m, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	m.Tick()
	if m.Ticks != 1 {
		t.Fatalf("Ticks = %d", m.Ticks)
	}
	if vm.Guest.Heat(v.Start) != 0 {
		t.Fatal("tick did not decay heat")
	}
}

func TestTouch(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Touch(v.Start)
	if _, _, ok := vm.Guest.Table.Lookup(v.Start); !ok {
		t.Fatal("Touch did not map guest")
	}
	gfn, _, _ := vm.Guest.Table.Lookup(v.Start)
	if _, _, ok := vm.EPT.Table.Lookup(gfn * mem.PageSize); !ok {
		t.Fatal("Touch did not map EPT")
	}
}

func TestAccessOutsideVMAPanics(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	defer func() {
		if recover() == nil {
			t.Error("no panic for wild access")
		}
	}()
	vm.Access(0xdead000)
}

func TestAlignmentPartial(t *testing.T) {
	// Two guest-huge regions; host backs only the first huge.
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(testGuestPages, hugePolicy{}, hugePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	vm.Access(v.Start)
	vm.EPT.Policy = basePolicy{}
	vm.Access(v.Start + mem.HugeSize)
	a := vm.Alignment()
	if a.GuestHuge != 2 || a.HostHuge != 1 || a.Aligned != 1 {
		t.Fatalf("alignment = %+v", a)
	}
	want := 2.0 * 1 / 3
	if a.Rate() != want {
		t.Fatalf("rate = %v, want %v", a.Rate(), want)
	}
}

func TestGuestPagesAccessor(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	if vm.GuestPages() != testGuestPages {
		t.Fatalf("GuestPages = %d", vm.GuestPages())
	}
}

// Verify EnsureMapped uses pagetable errors consistently (regression
// guard for the huge-fallback path freeing policy-allocated frames).
type allocatingHugePolicy struct{ hugePolicy }

func (allocatingHugePolicy) OnFault(L *Layer, va uint64, v *VMA) Decision {
	f, err := L.Buddy.Alloc(mem.HugeOrder)
	if err != nil {
		return Decision{Kind: mem.Base}
	}
	return Decision{Kind: mem.Huge, Frame: f, Allocated: true}
}

func TestPolicyAllocatedHugeFrameFreedOnFallback(t *testing.T) {
	_, vm := newTestMachine(allocatingHugePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(10*mem.PageSize, 1) // too small for huge
	free := vm.Guest.Buddy.FreePages()
	vm.Access(v.Start)
	// One base page consumed; the huge block must have been returned.
	if vm.Guest.Buddy.FreePages() != free-1 {
		t.Fatalf("leak: free %d -> %d", free, vm.Guest.Buddy.FreePages())
	}
}
