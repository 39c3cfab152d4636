package machine

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
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
	if _, o, ok := vm.Guest.Buddy.FreeBlockAt(0); !ok || o < mem.HugeOrder {
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

// TestCompactRegionAbortTouchesNothing: a region with an unmovable
// frame is rejected by the read-only first pass, so the abort leaves
// the buddy books, the table and the TLB exactly as they were, and
// allocates nothing.
func TestCompactRegionAbortTouchesNothing(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	L := vm.Guest
	v := L.Space.MMap(mem.HugeSize, 0)
	// Mapped pages interleaved with free frames, and the region's last
	// frame pinned, so the check walks the whole region before it fails.
	for f := uint64(0); f < mem.PagesPerHuge-1; f += 2 {
		if err := L.Buddy.AllocAt(f, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := L.Table.Map4K(v.Start+f*mem.PageSize, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := L.Buddy.AllocAt(mem.PagesPerHuge-1, 0); err != nil {
		t.Fatal(err)
	}
	var counts [buddy.NumOrders]uint64
	for o := range counts {
		counts[o] = L.Buddy.FreeBlockCount(o)
	}
	free, version := L.Buddy.FreePages(), L.Table.Version()
	flushed := recordFlushes(L)
	if allocs := testing.AllocsPerRun(20, func() {
		if L.CompactRegion(0) {
			t.Fatal("compacted a region with an unmovable frame")
		}
	}); allocs != 0 {
		t.Fatalf("aborted compaction allocated %v times per run", allocs)
	}
	if got := L.Buddy.FreePages(); got != free {
		t.Fatalf("free pages %d -> %d", free, got)
	}
	for o := range counts {
		if got := L.Buddy.FreeBlockCount(o); got != counts[o] {
			t.Fatalf("order-%d free blocks %d -> %d", o, counts[o], got)
		}
	}
	if got := L.Table.Version(); got != version {
		t.Fatalf("table version %d -> %d", version, got)
	}
	if len(*flushed) != 0 {
		t.Fatalf("aborted compaction flushed regions %v", *flushed)
	}
	if L.Stats.MigratedPages != 0 || L.Stats.CompactedRegions != 0 {
		t.Fatalf("stats = %+v", L.Stats)
	}
}

// TestCompactRegionReturnsFramesToReservation: a reservation whose 512
// pages are all claimed and mapped compacts like any movable region,
// and its old frames go back to the reservation, unclaimed, instead of
// to the free lists.
func TestCompactRegionReturnsFramesToReservation(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	L := vm.Guest
	v := L.Space.MMap(mem.HugeSize, 0)
	const hi = 3
	r, err := L.Buddy.Reserve(hi)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		if err := L.Buddy.AllocReservedPage(hi, r.Start()+i); err != nil {
			t.Fatal(err)
		}
		if _, err := L.Table.Map4K(v.Start+i*mem.PageSize, r.Start()+i); err != nil {
			t.Fatal(err)
		}
	}
	free := L.Buddy.FreePages()
	if !L.CompactRegion(hi) {
		t.Fatal("compaction failed on a fully claimed, fully mapped reservation")
	}
	if got, ok := L.Buddy.ReservationAt(hi); !ok || got.Allocated() != 0 {
		t.Fatalf("reservation after compaction: %+v present=%v, want present with no claims", got, ok)
	}
	// The destinations came from the free lists; the old frames did not
	// go back to them.
	if got := L.Buddy.FreePages(); got != free-mem.PagesPerHuge {
		t.Fatalf("free pages %d -> %d, want %d", free, got, free-mem.PagesPerHuge)
	}
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		f, _, ok := L.Table.Lookup(v.Start + i*mem.PageSize)
		if !ok || f/mem.PagesPerHuge == hi {
			t.Fatalf("page %d: frame %#x mapped=%v after compaction", i, f, ok)
		}
	}
	if vs := append(L.CheckInvariants(), L.Buddy.CheckInvariants()...); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

// compactPerFrame is the claim-then-free compaction that CompactRegion
// replaced, kept as the reference for TestCompactRegionMatchesPerFrameClaims:
// it claims every free frame of the region at order 0 as it walks, and
// frees every claimed and vacated frame at order 0 on the way out.
func compactPerFrame(L *Layer, hugeIdx uint64) bool {
	start := hugeIdx * mem.PagesPerHuge
	if start+mem.PagesPerHuge > L.Buddy.TotalPages() {
		return false
	}
	var claimed, migrate, regions []uint64
	abort := func() bool {
		for _, r := range regions {
			L.FlushRegion(r << mem.HugeShift)
		}
		for _, f := range claimed {
			L.Buddy.Free(f, 0)
		}
		return false
	}
	for f := start; f < start+mem.PagesPerHuge; f++ {
		if L.Buddy.AllocAt(f, 0) == nil {
			claimed = append(claimed, f)
			continue
		}
		if _, ok := L.Table.ReverseLookup(f); !ok {
			return abort()
		}
		migrate = append(migrate, f)
	}
	for _, f := range migrate {
		va, _ := L.Table.ReverseLookup(f)
		dest, err := L.Buddy.Alloc(0)
		if err != nil {
			return abort()
		}
		if _, err := L.Table.Remap4K(va, dest); err != nil {
			panic(err)
		}
		claimed = append(claimed, f)
		L.Stats.MigratedPages++
		L.Stats.BackgroundCycles += L.Costs.CopyPage
		if r := va >> mem.HugeShift; !slices.Contains(regions, r) {
			regions = append(regions, r)
		}
	}
	for _, r := range regions {
		L.FlushRegion(r << mem.HugeShift)
	}
	if len(migrate) > 0 {
		L.AddStall(L.Costs.Shootdown + uint64(len(migrate))*L.Costs.CachePollution)
	}
	for _, f := range claimed {
		L.Buddy.Free(f, 0)
	}
	L.Stats.CompactedRegions++
	return true
}

// compactionFixture builds a bare layer over a buddy of the given size
// whose first regions hold a deterministic mix of free, mapped and
// pinned frames, fully claimed and partly claimed reservations, and
// (for the high regions) untouched free memory. mappedPct sets the
// share of plain frames that are mapped; the rest of the plain frames
// stay free, but for one pin in every fifth region.
func compactionFixture(t *testing.T, pages uint64, busyRegions uint64, mappedPct uint64) (*Layer, *[]uint64) {
	t.Helper()
	space := NewAddressSpace(0)
	L := NewLayer("guest", buddy.New(pages), space, basePolicy{}, DefaultCosts())
	var flushed []uint64
	L.FlushRegion = func(va uint64) { flushed = append(flushed, va>>mem.HugeShift) }
	v := space.MMap(pages*mem.PageSize, 0)
	nextVA := v.Start
	mapFrame := func(f uint64) {
		if _, err := L.Table.Map4K(nextVA, f); err != nil {
			t.Fatal(err)
		}
		nextVA += mem.PageSize
	}
	x := uint64(12345)
	for r := uint64(0); r < busyRegions; r++ {
		start := r * mem.PagesPerHuge
		switch r % 7 {
		case 2: // fully claimed, fully mapped reservation
			if _, err := L.Buddy.Reserve(r); err != nil {
				t.Fatal(err)
			}
			for f := start; f < start+mem.PagesPerHuge; f++ {
				if err := L.Buddy.AllocReservedPage(r, f); err != nil {
					t.Fatal(err)
				}
				mapFrame(f)
			}
			continue
		case 4: // reservation with half its pages claimed and mapped
			if _, err := L.Buddy.Reserve(r); err != nil {
				t.Fatal(err)
			}
			for f := start; f < start+mem.PagesPerHuge; f += 2 {
				if err := L.Buddy.AllocReservedPage(r, f); err != nil {
					t.Fatal(err)
				}
				mapFrame(f)
			}
			continue
		case 6: // left free
			continue
		}
		for f := start; f < start+mem.PagesPerHuge; f++ {
			x = x*6364136223846793005 + 1442695040888963407
			if x>>33%100 < mappedPct {
				if err := L.Buddy.AllocAt(f, 0); err != nil {
					t.Fatal(err)
				}
				mapFrame(f)
			}
		}
		if r%5 == 3 {
			pin := start + x>>40%mem.PagesPerHuge
			if _, ok := L.Table.ReverseLookup(pin); !ok {
				_ = L.Buddy.AllocAt(pin, 0)
			}
		}
	}
	return L, &flushed
}

// freeBlocks lists the allocator's free blocks in address order.
func freeBlocks(a *buddy.Allocator) [][2]uint64 {
	var out [][2]uint64
	for f := uint64(0); f < a.TotalPages(); {
		s, o, ok := a.FreeBlockAt(f)
		if !ok {
			f++
			continue
		}
		out = append(out, [2]uint64{s, uint64(o)})
		f = s + 1<<o
	}
	return out
}

// reservationClaims lists every active reservation with its claims.
func reservationClaims(a *buddy.Allocator) map[uint64][mem.PagesPerHuge]bool {
	out := make(map[uint64][mem.PagesPerHuge]bool)
	a.ForEachReservation(func(r *buddy.Reservation) {
		var c [mem.PagesPerHuge]bool
		for i := range c {
			c[i] = r.Claimed(i)
		}
		out[r.HugeIndex] = c
	})
	return out
}

// TestCompactRegionMatchesPerFrameClaims compacts every region of two
// identical fixtures, one with CompactRegion and one with the old
// per-frame claim-then-free sequence, and requires identical results,
// buddy books, reservations, mappings, stats, stalls and flushes after
// every call. The fixtures cover free, movable, pinned and reserved
// regions, free blocks larger than a region, and (in the starved one)
// aborts midway through migration when destinations run out.
func TestCompactRegionMatchesPerFrameClaims(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		pages, busy, mappedPct uint64
		midAbort               bool // destinations run out during migration
	}{
		{"mixed", 32 * mem.PagesPerHuge, 20, 55, false},
		{"starved", 4 * mem.PagesPerHuge, 4, 90, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, gotFlushed := compactionFixture(t, tc.pages, tc.busy, tc.mappedPct)
			want, wantFlushed := compactionFixture(t, tc.pages, tc.busy, tc.mappedPct)
			var compacted, aborted, midAborts int
			for pass := 0; pass < 2; pass++ {
				for r := uint64(0); r <= tc.pages/mem.PagesPerHuge; r++ {
					migrated := got.Stats.MigratedPages
					ok := got.CompactRegion(r)
					if wantOK := compactPerFrame(want, r); ok != wantOK {
						t.Fatalf("pass %d region %d: CompactRegion = %v, per-frame = %v", pass, r, ok, wantOK)
					}
					switch {
					case ok:
						compacted++
					case got.Stats.MigratedPages > migrated:
						midAborts++
					default:
						aborted++
					}
					if g, w := freeBlocks(got.Buddy), freeBlocks(want.Buddy); !slices.Equal(g, w) {
						t.Fatalf("pass %d region %d: free blocks\n%v\nwant\n%v", pass, r, g, w)
					}
					if g, w := got.Buddy.FreePages(), want.Buddy.FreePages(); g != w {
						t.Fatalf("pass %d region %d: free pages %d, want %d", pass, r, g, w)
					}
					for o := 0; o < buddy.NumOrders; o++ {
						if g, w := got.Buddy.FreeBlockCount(o), want.Buddy.FreeBlockCount(o); g != w {
							t.Fatalf("pass %d region %d: order-%d blocks %d, want %d", pass, r, o, g, w)
						}
					}
					if g, w := reservationClaims(got.Buddy), reservationClaims(want.Buddy); !maps.Equal(g, w) {
						t.Fatalf("pass %d region %d: reservations differ", pass, r)
					}
					var gm, wm []pagetable.Mapping
					got.Table.ScanAll(func(m pagetable.Mapping) bool { gm = append(gm, m); return true })
					want.Table.ScanAll(func(m pagetable.Mapping) bool { wm = append(wm, m); return true })
					if !slices.Equal(gm, wm) {
						t.Fatalf("pass %d region %d: mappings differ", pass, r)
					}
					if got.Stats != want.Stats || got.stall != want.stall {
						t.Fatalf("pass %d region %d: stats %+v stall %d, want %+v stall %d",
							pass, r, got.Stats, got.stall, want.Stats, want.stall)
					}
					if !slices.Equal(*gotFlushed, *wantFlushed) {
						t.Fatalf("pass %d region %d: flushed %v, want %v", pass, r, *gotFlushed, *wantFlushed)
					}
				}
			}
			exercised := compacted > 0 && aborted > 0
			if tc.midAbort {
				exercised = midAborts > 0
			}
			if !exercised {
				t.Fatalf("fixture exercised %d compactions, %d aborts and %d aborts during migration",
					compacted, aborted, midAborts)
			}
			if vs := append(got.CheckInvariants(), got.Buddy.CheckInvariants()...); len(vs) != 0 {
				t.Fatal(audit.Report(vs))
			}
		})
	}
}
