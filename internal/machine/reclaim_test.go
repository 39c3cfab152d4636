package machine

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// starveGuest builds a tiny VM whose guest memory is nearly exhausted
// by a huge-mapped region plus base pages, so reclaim triggers.
func starveGuest(t *testing.T) (*Machine, *VM, *VMA) {
	t.Helper()
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(4*mem.PagesPerHuge, hugePolicy{}, basePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(3*mem.HugeSize, 0)
	vm.Access(v.Start) // huge mapping consumes region
	return m, vm, v
}

func TestReclaimDemotesColdHugePages(t *testing.T) {
	_, vm, v := starveGuest(t)
	// Let the region go cold.
	for vm.Guest.Heat(v.Start) > 0 {
		vm.Guest.DecayHeat()
	}
	freed := vm.Guest.ReclaimUnderPressure(vm.Guest.Buddy.TotalPages(), 4, nil)
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("cold huge page survived reclaim")
	}
	if vm.Guest.Stats.Splits != 1 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	// Guest layer never unmaps (its mappings ARE the data).
	if freed != 0 {
		t.Fatalf("guest reclaim freed %d pages", freed)
	}
}

func TestReclaimSkipsHotHugePages(t *testing.T) {
	_, vm, v := starveGuest(t)
	vm.Access(v.Start + mem.PageSize) // keep the region hot
	vm.Guest.ReclaimUnderPressure(vm.Guest.Buddy.TotalPages(), 4, nil)
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("hot huge page demoted")
	}
}

func TestReclaimHonoursKeepFilter(t *testing.T) {
	_, vm, v := starveGuest(t)
	for vm.Guest.Heat(v.Start) > 0 {
		vm.Guest.DecayHeat()
	}
	vm.Guest.ReclaimUnderPressure(vm.Guest.Buddy.TotalPages(), 4,
		func(uint64) bool { return true })
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("kept huge page was demoted")
	}
}

func TestReclaimNoopAboveWatermark(t *testing.T) {
	_, vm, v := starveGuest(t)
	for vm.Guest.Heat(v.Start) > 0 {
		vm.Guest.DecayHeat()
	}
	vm.Guest.ReclaimUnderPressure(1 /* watermark below free */, 4, nil)
	if vm.Guest.Table.Mapped2M() != 1 {
		t.Fatal("reclaim ran above watermark")
	}
}

func TestEPTReclaimDropsBloat(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(testGuestPages, basePolicy{}, hugePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	// 513 accesses fill guest frames 0..512, so the host backs two GPA
	// regions huge although only 513 pages are live: 511 pages of bloat.
	for p := uint64(0); p <= mem.PagesPerHuge; p++ {
		vm.Access(v.Start + p*mem.PageSize)
	}
	if vm.EPT.Table.Mapped2M() != 2 {
		t.Fatalf("setup: %d huge EPT backings, want 2", vm.EPT.Table.Mapped2M())
	}
	for vm.EPT.Heat(0) > 0 || vm.EPT.Heat(mem.HugeSize) > 0 {
		vm.EPT.DecayHeat()
	}
	hostFree := m.HostBuddy.FreePages()
	freed := vm.EPT.ReclaimUnderPressure(m.HostBuddy.TotalPages(), 4, nil)
	// A fresh split leaves every page unaccessed, so both demoted
	// regions are dropped whole, and the stat counts each page once.
	if freed != 2*mem.PagesPerHuge || vm.EPT.Stats.ReclaimedPages != freed {
		t.Fatalf("freed %d pages, ReclaimedPages %d, want %d each",
			freed, vm.EPT.Stats.ReclaimedPages, 2*mem.PagesPerHuge)
	}
	if m.HostBuddy.FreePages() != hostFree+freed {
		t.Fatalf("host free pages %d, want %d", m.HostBuddy.FreePages(), hostFree+freed)
	}
	// The live page must survive: it was accessed before demotion...
	// demotion resets accessed bits, so the conservative EPT reclaim
	// may drop it too; the guest then refaults it on next access.
	c := vm.Access(v.Start)
	if c == 0 {
		t.Fatal("access after reclaim cost nothing")
	}
	if _, _, ok := vm.EPT.Table.Lookup(0); !ok {
		// The GPA of v.Start's frame must be mapped again after the
		// access above.
		gfn, _, _ := vm.Guest.Table.Lookup(v.Start)
		if _, _, ok := vm.EPT.Table.Lookup(gfn * mem.PageSize); !ok {
			t.Fatal("EPT refault did not restore backing")
		}
	}
}

func TestAccessedBitsHarvest(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Touch(v.Start)
	if vm.Guest.Table.Accessed(v.Start) {
		t.Fatal("freshly mapped page already accessed")
	}
	vm.Access(v.Start)
	if !vm.Guest.Table.Accessed(v.Start) {
		t.Fatal("access did not set the A bit")
	}
	vm.Guest.Table.ClearAccessed(v.Start)
	if vm.Guest.Table.Accessed(v.Start) {
		t.Fatal("ClearAccessed did not clear")
	}
	if vm.Guest.Table.Accessed(v.Start + 8*mem.PageSize) {
		t.Fatal("unmapped page reports accessed")
	}
}
