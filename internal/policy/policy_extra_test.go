package policy

import (
	"testing"

	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
)

func TestTHPDeferredCompaction(t *testing.T) {
	p := DefaultTHPParams()
	p.DeferFaults = 8
	_, vm := newVM(NewTHP(p), BaseOnly{})
	fr := frag.New(vm.Guest.Buddy, 1)
	fr.FragmentTo(0.999, 0.95)
	if vm.Guest.Buddy.FreeHugeCandidates() != 0 {
		t.Skip("blocks remain; cannot exercise backoff")
	}
	v := vm.Guest.Space.MMap(16*mem.HugeSize, 0)
	// First eligible fault fails and arms the backoff.
	c1 := vm.Access(v.Start)
	if c1 < p.CompactCycles {
		t.Fatalf("first fault paid no compaction stall: %d", c1)
	}
	// The next DeferFaults eligible faults skip the attempt: no
	// compaction stall even though allocation would still fail.
	for r := uint64(1); r <= 8; r++ {
		c := vm.Access(v.Start + r*mem.HugeSize)
		if c >= p.CompactCycles {
			t.Fatalf("fault %d paid a stall during backoff: %d", r, c)
		}
	}
	// After DeferFaults expire the path retries (and stalls again).
	c2 := vm.Access(v.Start + 9*mem.HugeSize)
	if c2 < p.CompactCycles {
		t.Fatalf("post-backoff fault paid no stall: %d", c2)
	}
}

func TestIngensRelativeThresholdOnEPT(t *testing.T) {
	// At the EPT layer the utilization gate is relative to the
	// densest candidate: a region at ~90% of the max density promotes
	// even though absolute presence is below the nominal threshold.
	ip := DefaultIngensParams()
	ip.UtilThreshold = 460 // 90% nominal
	_, vm := newVM(BaseOnly{}, NewIngens(ip))
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch region 0 with 200 pages and region 1 with 190: densities
	// 200 and 190, both far below 460 absolute.
	for i := uint64(0); i < 200; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	for i := uint64(0); i < 190; i++ {
		vm.Access(v.Start + mem.HugeSize + i*mem.PageSize)
	}
	for i := 0; i < ip.PromotePeriod*4; i++ {
		vm.EPT.Policy.Tick(vm.EPT)
	}
	if vm.EPT.Table.Mapped2M() == 0 {
		t.Fatalf("relative gating never promoted: EPT stats %+v", vm.EPT.Stats)
	}
}

func TestIngensAbsoluteThresholdOnGuest(t *testing.T) {
	ip := DefaultIngensParams()
	_, vm := newVM(NewIngens(ip), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for i := uint64(0); i < 200; i++ { // below 460
		vm.Access(v.Start + i*mem.PageSize)
	}
	for i := 0; i < ip.PromotePeriod*4; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Table.Mapped2M() != 0 {
		t.Fatal("guest layer ignored the absolute threshold")
	}
}

func TestRangerResweep(t *testing.T) {
	p := DefaultRangerParams()
	p.AlignEvery = 0
	p.ResweepTicks = 4
	_, vm := newVM(NewRanger(p), BaseOnly{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for i := uint64(0); i < 100; i += 2 {
		vm.Access(v.Start + i*mem.PageSize)
	}
	vm.Guest.Policy.Tick(vm.Guest)
	first := vm.Guest.Stats.MigratedPages
	if first == 0 {
		t.Fatal("no initial compaction")
	}
	// Within the resweep window: no re-migration of the same region.
	for i := 0; i < int(p.ResweepTicks)-2; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Stats.MigratedPages != first {
		t.Fatalf("region re-compacted inside the window: %d -> %d",
			first, vm.Guest.Stats.MigratedPages)
	}
	// Past the window: the standing overhead recurs.
	for i := 0; i < int(p.ResweepTicks)+1; i++ {
		vm.Guest.Policy.Tick(vm.Guest)
	}
	if vm.Guest.Stats.MigratedPages == first {
		t.Fatal("no resweep after the window")
	}
}

func TestTryPromotePrefersInPlace(t *testing.T) {
	_, vm := newVM(BaseOnly{}, BaseOnly{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	touchRegion(vm, v, 1) // pristine allocator: contiguous + aligned
	if !tryPromote(vm.Guest, v.Start) {
		t.Fatal("tryPromote failed")
	}
	if vm.Guest.Stats.InPlacePromotions != 1 || vm.Guest.Stats.MigrationPromotions != 0 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestHugeRegionsFiltersPartialRegions(t *testing.T) {
	_, vm := newVM(BaseOnly{}, BaseOnly{})
	vm.Guest.Space.MMap(mem.HugeSize/2, 1) // VMA smaller than a region
	if got := vm.Guest.Space.HugeRegions(); len(got) != 0 {
		t.Fatalf("partial region listed: %v", got)
	}
	// A 3-region VMA whose start is not huge-aligned (it follows the
	// half-region VMA above) fully contains exactly 2 huge regions.
	v := vm.Guest.Space.MMap(3*mem.HugeSize, 0)
	got := vm.Guest.Space.HugeRegions()
	if len(got) != 2 {
		t.Fatalf("regions = %v (vma %v)", got, v)
	}
	for _, va := range got {
		if va < v.Start || va+mem.HugeSize > v.End() {
			t.Fatalf("region %#x outside VMA %v", va, v)
		}
	}
}

var _ = machine.DefaultCosts // keep import used under build variations
