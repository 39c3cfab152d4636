package machine

import (
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/tlb"
)

func TestCompactRegionMovesMappedPages(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch scattered pages: their frames land in region 0 of the
	// pristine buddy (lowest-first), interleaved with free frames.
	for i := uint64(0); i < 100; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	free := vm.Guest.Buddy.FreePages()
	if !vm.Guest.CompactRegion(0) {
		t.Fatal("compaction failed on a fully movable region")
	}
	// The region is now one free order-9 block.
	if !vm.Guest.Buddy.IsFree(0, mem.HugeOrder) {
		t.Fatal("region not free after compaction")
	}
	// Free page count unchanged: every migrated page took one frame
	// elsewhere and released one here.
	if got := vm.Guest.Buddy.FreePages(); got != free {
		t.Fatalf("free pages %d -> %d", free, got)
	}
	// All mappings still resolve.
	for i := uint64(0); i < 100; i++ {
		if _, _, ok := vm.Guest.Table.Lookup(v.Start + i*mem.PageSize); !ok {
			t.Fatalf("mapping %d lost", i)
		}
	}
	if vm.Guest.Stats.CompactedRegions != 1 || vm.Guest.Stats.MigratedPages != 100 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
	// Migration stall queued.
	if vm.Guest.TakeStall() == 0 {
		t.Fatal("no stall charged for compaction shootdowns")
	}
}

func TestCompactRegionAbortsOnUnmovable(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start) // frame 0 mapped
	// Pin a frame the table knows nothing about (unmovable page).
	if err := vm.Guest.Buddy.AllocAt(5, 0); err != nil {
		t.Fatal(err)
	}
	free := vm.Guest.Buddy.FreePages()
	if vm.Guest.CompactRegion(0) {
		t.Fatal("compacted a region with an unmovable frame")
	}
	// Rollback: free count restored.
	if got := vm.Guest.Buddy.FreePages(); got != free {
		t.Fatalf("rollback leaked: %d -> %d", free, got)
	}
	if vs := vm.Guest.Buddy.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

// recordFlushes wraps the layer's FlushRegion hook so a test sees the
// 2 MiB regions it was called for, in call order.
func recordFlushes(L *Layer) *[]uint64 {
	var regions []uint64
	inner := L.FlushRegion
	L.FlushRegion = func(va uint64) {
		regions = append(regions, va>>mem.HugeShift)
		inner(va)
	}
	return &regions
}

// residentIn counts the TLB entries translating addresses in the 2 MiB
// region.
func residentIn(vm *VM, region uint64) int {
	n := 0
	vm.TLB.VisitEntries(func(va uint64, _ mem.PageSizeKind) bool {
		if va>>mem.HugeShift == region {
			n++
		}
		return true
	})
	return n
}

// TestCompactRegionFlushesEachMovedRegionOnce pins compaction's
// shootdowns: one FlushRegion per distinct input region a moved page
// lives in, after the moves, leaving no TLB entry in those regions.
func TestCompactRegionFlushesEachMovedRegionOnce(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Alternate between two input regions, so their pages interleave
	// in frame region 0 and compaction moves both.
	lo, hi := v.Start, v.Start+2*mem.HugeSize
	for i := uint64(0); i < 50; i++ {
		vm.Access(lo + i*mem.PageSize)
		vm.Access(hi + i*mem.PageSize)
	}
	flushed := recordFlushes(vm.Guest)
	if !vm.Guest.CompactRegion(0) {
		t.Fatal("compaction failed on a fully movable region")
	}
	want := []uint64{lo >> mem.HugeShift, hi >> mem.HugeShift}
	if !slices.Equal(*flushed, want) {
		t.Fatalf("flushed regions %v, want %v", *flushed, want)
	}
	for _, r := range want {
		if n := residentIn(vm, r); n != 0 {
			t.Fatalf("%d TLB entries survive in moved region %#x", n, r)
		}
	}
}

// TestCompactRegionAbortFlushesMovedPages: when destinations run out
// midway, the pages already moved keep their new frames, so their
// region is still shot down before the rollback.
func TestCompactRegionAbortFlushesMovedPages(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(2*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	// Map all but 10 frames: frame region 0 is full, and only 10
	// destinations remain for its 512 pages.
	for i := uint64(0); i < 2*mem.PagesPerHuge-10; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	region := v.Start >> mem.HugeShift
	if residentIn(vm, region) == 0 {
		t.Fatal("setup: no TLB entries in the region compaction moves")
	}
	flushed := recordFlushes(vm.Guest)
	if vm.Guest.CompactRegion(0) {
		t.Fatal("compacted a region with too few destination frames")
	}
	if vm.Guest.Stats.MigratedPages != 10 {
		t.Fatalf("migrated %d pages before aborting, want 10", vm.Guest.Stats.MigratedPages)
	}
	if want := []uint64{region}; !slices.Equal(*flushed, want) {
		t.Fatalf("flushed regions %v, want %v", *flushed, want)
	}
	if n := residentIn(vm, region); n != 0 {
		t.Fatalf("%d TLB entries survive in the moved region", n)
	}
}

func TestCompactRegionOutOfRange(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	if vm.Guest.CompactRegion(vm.Guest.Buddy.TotalPages() / mem.PagesPerHuge) {
		t.Fatal("compacted region beyond end of memory")
	}
}

func TestCompactRegionSkipsHugeMapped(t *testing.T) {
	_, vm := newTestMachine(hugePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start) // huge mapping occupies region 0's frames
	gfn, kind, _ := vm.Guest.Table.Lookup(v.Start)
	if kind != mem.Huge {
		t.Fatal("setup: no huge mapping")
	}
	if vm.Guest.CompactRegion(gfn / mem.PagesPerHuge) {
		t.Fatal("compacted a huge-mapped region")
	}
}

func TestRunCompactionRespectsWatermark(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	// Pristine memory: plenty of blocks, compaction must not run.
	if vm.Guest.RunCompaction(CompactionLowWatermark, 64) {
		t.Fatal("compaction ran above the watermark")
	}
	if vm.Guest.Stats.CompactedRegions != 0 {
		t.Fatalf("stats = %+v", vm.Guest.Stats)
	}
}

func TestRunCompactionMintsBlockWhenStarved(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	vm := m.AddVM(8*mem.PagesPerHuge /* tiny guest: 16 MiB */, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(7*mem.HugeSize, 0)
	// Touch every other page across the whole guest: no free order-9
	// block remains, but every region is movable.
	for i := uint64(0); i < 7*mem.PagesPerHuge; i += 2 {
		vm.Access(v.Start + i*mem.PageSize)
	}
	if vm.Guest.Buddy.FreeHugeCandidates() >= CompactionLowWatermark {
		t.Skip("allocator kept blocks; scenario not starved")
	}
	if !vm.Guest.RunCompaction(CompactionLowWatermark, 64) {
		t.Fatalf("starved layer failed to mint a block: cands=%d free=%d",
			vm.Guest.Buddy.FreeHugeCandidates(), vm.Guest.Buddy.FreePages())
	}
	if vm.Guest.Buddy.FreeHugeCandidates() == 0 {
		t.Fatal("no block after successful compaction")
	}
}

func TestReverseLookupThroughLayerOps(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	vm.Access(v.Start)
	gfn, _, _ := vm.Guest.Table.Lookup(v.Start)
	va, ok := vm.Guest.Table.ReverseLookup(gfn)
	if !ok || va != v.Start {
		t.Fatalf("ReverseLookup = %#x, %v", va, ok)
	}
	// Unmap clears the reverse entry.
	vm.Guest.UnmapVMA(v)
	if _, ok := vm.Guest.Table.ReverseLookup(gfn); ok {
		t.Fatal("reverse entry survived unmap")
	}
}
