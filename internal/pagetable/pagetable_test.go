package pagetable

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/mem"
)

func TestMapLookup4K(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x1000, 42); err != nil {
		t.Fatal(err)
	}
	f, kind, ok := pt.Lookup(0x1234)
	if !ok || kind != mem.Base || f != 42 {
		t.Fatalf("Lookup = %d, %v, %v", f, kind, ok)
	}
	if _, _, ok := pt.Lookup(0x2000); ok {
		t.Error("unmapped address resolved")
	}
	if pt.Mapped4K() != 1 || pt.Mapped2M() != 0 {
		t.Errorf("counts = %d/%d", pt.Mapped4K(), pt.Mapped2M())
	}
	if pt.MappedBytes() != mem.PageSize {
		t.Errorf("MappedBytes = %d", pt.MappedBytes())
	}
}

func TestMap4KDouble(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Map4K(0x1000, 2); !errors.Is(err, ErrMapped) {
		t.Fatalf("double map: %v", err)
	}
}

// TestLeafHoldsNoPointers pins the leaf to 512 x86-64 PTE words: no
// pointer for the collector to scan, and exactly one 4 KiB page.
func TestLeafHoldsNoPointers(t *testing.T) {
	typ := reflect.TypeOf(Leaf{})
	if typ.Kind() != reflect.Array || typ.Len() != entriesPerNode || typ.Elem().Kind() != reflect.Uint64 {
		t.Fatalf("leaf is %v, want [512]uint64", typ)
	}
	if n := unsafe.Sizeof(Leaf{}); n != mem.PageSize {
		t.Fatalf("leaf is %d bytes, want %d", n, mem.PageSize)
	}
}

// TestAccessRefIs8Bytes pins AccessRef to one pointer to a PTE word.
func TestAccessRefIs8Bytes(t *testing.T) {
	if n := unsafe.Sizeof(AccessRef{}); n != 8 {
		t.Fatalf("AccessRef is %d bytes, want 8", n)
	}
}

// TestFrameFieldTop maps frames at the top of the 52-bit PTE frame
// field and reads them back; one frame past it is rejected by every
// operation that writes a frame, and nothing is mapped.
func TestFrameFieldTop(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x1000, maxFrame); err != nil {
		t.Fatal(err)
	}
	if f, kind, ok := pt.Lookup(0x1000); !ok || f != maxFrame || kind != mem.Base {
		t.Fatalf("Lookup = %#x, %v, %v, want %#x", f, kind, ok, uint64(maxFrame))
	}
	if va, ok := pt.ReverseLookup(maxFrame); !ok || va != 0x1000 {
		t.Fatalf("ReverseLookup = %#x, %v", va, ok)
	}
	// The huge block below the top one: the top block holds maxFrame.
	const hugeBlock = maxFrame&^(mem.PagesPerHuge-1) - mem.PagesPerHuge
	if err := pt.Map2M(mem.HugeSize, hugeBlock); err != nil {
		t.Fatal(err)
	}
	if f, kind, ok := pt.Lookup(2*mem.HugeSize - mem.PageSize); !ok || f != hugeBlock+mem.PagesPerHuge-1 || kind != mem.Huge {
		t.Fatalf("Lookup in the top huge page = %#x, %v, %v", f, kind, ok)
	}
	if _, err := pt.Map4K(0x2000, maxFrame+1); !errors.Is(err, ErrFrameRange) {
		t.Fatalf("Map4K past the frame field: %v", err)
	}
	if err := pt.Map2M(4*mem.HugeSize, maxFrame+1); !errors.Is(err, ErrFrameRange) {
		t.Fatalf("Map2M past the frame field: %v", err)
	}
	if _, err := pt.Remap4K(0x1000, maxFrame+1); !errors.Is(err, ErrFrameRange) {
		t.Fatalf("Remap4K past the frame field: %v", err)
	}
	if f, _, _ := pt.Lookup(0x1000); f != maxFrame {
		t.Fatalf("rejected Remap4K changed the frame to %#x", f)
	}
	if pt.Mapped4K() != 1 || pt.Mapped2M() != 1 {
		t.Fatalf("counts = %d/%d after rejected maps", pt.Mapped4K(), pt.Mapped2M())
	}
	if vs := pt.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit: %v", vs)
	}
}

func TestMapLookup2M(t *testing.T) {
	pt := New()
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	// Address in the middle of the region resolves to base+offset.
	va := uint64(mem.HugeSize) + 100*mem.PageSize
	f, kind, ok := pt.Lookup(va)
	if !ok || kind != mem.Huge || f != 612 {
		t.Fatalf("Lookup = %d, %v, %v", f, kind, ok)
	}
	if pt.Mapped2M() != 1 {
		t.Errorf("Mapped2M = %d", pt.Mapped2M())
	}
	if pt.MappedBytes() != mem.HugeSize {
		t.Errorf("MappedBytes = %d", pt.MappedBytes())
	}
}

func TestMap2MAlignment(t *testing.T) {
	pt := New()
	if err := pt.Map2M(0x1000, 512); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned va: %v", err)
	}
	if err := pt.Map2M(0, 100); !errors.Is(err, ErrMisaligned) {
		t.Errorf("misaligned frame: %v", err)
	}
}

func TestMap2MConflicts(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(0, 512); !errors.Is(err, ErrMapped) {
		t.Errorf("Map2M over base mapping: %v", err)
	}
	pt2 := New()
	if err := pt2.Map2M(0, 512); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map2M(0, 1024); !errors.Is(err, ErrMapped) {
		t.Errorf("double Map2M: %v", err)
	}
	if _, err := pt2.Map4K(0x1000, 9); !errors.Is(err, ErrMapped) {
		t.Errorf("Map4K under huge: %v", err)
	}
}

// TestUnmap4KMissAllocsNothing pins the reclaim paths' expected miss:
// unmapping an absent page (no PTE node, or an empty PTE slot) or a
// huge-mapped one returns a sentinel without allocating.
func TestUnmap4KMissAllocsNothing(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x5000, 3); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	for _, va := range []uint64{0x6000, 1 << 40, mem.HugeSize + 0x3000} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := pt.Unmap4K(va); err == nil {
				t.Fatalf("Unmap4K(%#x) succeeded", va)
			}
		}); n != 0 {
			t.Errorf("Unmap4K(%#x) miss allocates %.0f times", va, n)
		}
	}
}

func TestMap2MAfterUnmappedChild(t *testing.T) {
	// A region whose PTE node exists but is empty can be huge-mapped.
	pt := New()
	if _, err := pt.Map4K(0, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap4K(0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(0, 512); err != nil {
		t.Fatalf("Map2M after child emptied: %v", err)
	}
}

func TestUnmap(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x5000, 3); err != nil {
		t.Fatal(err)
	}
	f, err := pt.Unmap4K(0x5000)
	if err != nil || f != 3 {
		t.Fatalf("Unmap4K = %d, %v", f, err)
	}
	if _, err := pt.Unmap4K(0x5000); !errors.Is(err, ErrNotMapped) {
		t.Errorf("double unmap: %v", err)
	}
	if err := pt.Map2M(0, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Unmap4K(0x1000); !errors.Is(err, ErrWrongSize) {
		t.Errorf("Unmap4K of huge: %v", err)
	}
	hf, err := pt.Unmap2M(0x1000)
	if err != nil || hf != 512 {
		t.Fatalf("Unmap2M = %d, %v", hf, err)
	}
	if _, err := pt.Unmap2M(0); !errors.Is(err, ErrNotMapped) {
		t.Errorf("double Unmap2M: %v", err)
	}
	if pt.Mapped4K() != 0 || pt.Mapped2M() != 0 {
		t.Errorf("counts = %d/%d", pt.Mapped4K(), pt.Mapped2M())
	}
}

func TestUnmap2MUnmappedRegion(t *testing.T) {
	pt := New()
	if _, err := pt.Unmap2M(0); !errors.Is(err, ErrNotMapped) {
		t.Errorf("Unmap2M on empty: %v", err)
	}
}

func TestCollapseInPlace(t *testing.T) {
	pt := New()
	// 512 contiguous, huge-aligned base pages.
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		if _, err := pt.Map4K(i*mem.PageSize, 1024+i); err != nil {
			t.Fatal(err)
		}
	}
	info := pt.InspectCollapse(0)
	if info.Present != mem.PagesPerHuge || !info.Contiguous || info.Frame != 1024 {
		t.Fatalf("InspectCollapse = %+v", info)
	}
	if err := pt.Collapse(0); err != nil {
		t.Fatal(err)
	}
	f, kind, ok := pt.Lookup(5 * mem.PageSize)
	if !ok || kind != mem.Huge || f != 1029 {
		t.Fatalf("post-collapse Lookup = %d, %v, %v", f, kind, ok)
	}
	if pt.Mapped4K() != 0 || pt.Mapped2M() != 1 {
		t.Errorf("counts = %d/%d", pt.Mapped4K(), pt.Mapped2M())
	}
	// Idempotent.
	if err := pt.Collapse(0); err != nil {
		t.Errorf("re-collapse: %v", err)
	}
}

func TestCollapseRejectsNonContiguous(t *testing.T) {
	pt := New()
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		frame := 1024 + i
		if i == 100 {
			frame = 9999 // one stray page
		}
		if _, err := pt.Map4K(i*mem.PageSize, frame); err != nil {
			t.Fatal(err)
		}
	}
	info := pt.InspectCollapse(0)
	if info.Contiguous {
		t.Fatalf("InspectCollapse contiguous despite stray page: %+v", info)
	}
	if err := pt.Collapse(0); !errors.Is(err, ErrNotCollapsible) {
		t.Fatalf("Collapse: %v", err)
	}
}

func TestCollapseRejectsMisalignedBase(t *testing.T) {
	pt := New()
	// Contiguous but starting at a non-huge-aligned frame.
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		if _, err := pt.Map4K(i*mem.PageSize, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	info := pt.InspectCollapse(0)
	if info.Contiguous {
		t.Fatalf("contiguity should require huge-aligned base: %+v", info)
	}
}

func TestCollapseRejectsPartial(t *testing.T) {
	pt := New()
	for i := uint64(0); i < 100; i++ {
		if _, err := pt.Map4K(i*mem.PageSize, 1024+i); err != nil {
			t.Fatal(err)
		}
	}
	info := pt.InspectCollapse(0)
	if info.Present != 100 || !info.Contiguous {
		t.Fatalf("InspectCollapse = %+v", info)
	}
	if err := pt.Collapse(0); !errors.Is(err, ErrNotCollapsible) {
		t.Fatalf("partial Collapse: %v", err)
	}
}

func TestInspectCollapseEmpty(t *testing.T) {
	pt := New()
	info := pt.InspectCollapse(123 * mem.HugeSize)
	if info.Present != 0 || !info.Contiguous {
		t.Fatalf("empty InspectCollapse = %+v", info)
	}
}

func TestSplit(t *testing.T) {
	pt := New()
	if err := pt.Map2M(0, 2048); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split(100 * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if pt.Mapped4K() != mem.PagesPerHuge || pt.Mapped2M() != 0 {
		t.Fatalf("counts after split = %d/%d", pt.Mapped4K(), pt.Mapped2M())
	}
	f, kind, ok := pt.Lookup(7 * mem.PageSize)
	if !ok || kind != mem.Base || f != 2055 {
		t.Fatalf("post-split Lookup = %d, %v, %v", f, kind, ok)
	}
	// Split of non-huge fails.
	if err := pt.Split(0); !errors.Is(err, ErrNotMapped) {
		t.Errorf("re-split: %v", err)
	}
	// Collapse restores the huge mapping.
	if err := pt.Collapse(0); err != nil {
		t.Fatal(err)
	}
	if pt.Mapped2M() != 1 {
		t.Errorf("Mapped2M after re-collapse = %d", pt.Mapped2M())
	}
}

func TestRemap4K(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0, 5); err != nil {
		t.Fatal(err)
	}
	old, err := pt.Remap4K(0, 99)
	if err != nil || old != 5 {
		t.Fatalf("Remap4K = %d, %v", old, err)
	}
	f, _, _ := pt.Lookup(0)
	if f != 99 {
		t.Fatalf("frame after remap = %d", f)
	}
	if _, err := pt.Remap4K(0x1000, 1); !errors.Is(err, ErrNotMapped) {
		t.Errorf("remap unmapped: %v", err)
	}
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Remap4K(mem.HugeSize, 1); !errors.Is(err, ErrWrongSize) {
		t.Errorf("remap huge: %v", err)
	}
}

func TestLookupHugeRegion(t *testing.T) {
	pt := New()
	if err := pt.Map2M(0, 512); err != nil {
		t.Fatal(err)
	}
	hf, isHuge, n := pt.LookupHugeRegion(100)
	if !isHuge || hf != 512 || n != 0 {
		t.Fatalf("LookupHugeRegion huge = %d, %v, %d", hf, isHuge, n)
	}
	if _, err := pt.Map4K(mem.HugeSize, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Map4K(mem.HugeSize+mem.PageSize, 8); err != nil {
		t.Fatal(err)
	}
	_, isHuge, n = pt.LookupHugeRegion(mem.HugeSize + 5000)
	if isHuge || n != 2 {
		t.Fatalf("LookupHugeRegion base = %v, %d", isHuge, n)
	}
	_, isHuge, n = pt.LookupHugeRegion(10 * mem.HugeSize)
	if isHuge || n != 0 {
		t.Fatalf("LookupHugeRegion empty = %v, %d", isHuge, n)
	}
}

func TestScanHuge(t *testing.T) {
	pt := New()
	if err := pt.Map2M(4*mem.HugeSize, 2048); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(2*mem.HugeSize, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Map4K(0, 1); err != nil {
		t.Fatal(err)
	}
	var got []Mapping
	pt.ScanHuge(func(m Mapping) bool {
		got = append(got, m)
		return true
	})
	if len(got) != 2 {
		t.Fatalf("ScanHuge found %d mappings", len(got))
	}
	if got[0].VA != 2*mem.HugeSize || got[1].VA != 4*mem.HugeSize {
		t.Fatalf("scan order wrong: %+v", got)
	}
	if got[0].Kind != mem.Huge || got[0].Frame != 1024 {
		t.Fatalf("mapping content: %+v", got[0])
	}
	// Early stop.
	count := 0
	pt.ScanHuge(func(m Mapping) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestScanAllAndRange(t *testing.T) {
	pt := New()
	if _, err := pt.Map4K(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	if _, err := pt.Map4K(1<<30, 2); err != nil {
		t.Fatal(err)
	}
	var all []Mapping
	pt.ScanAll(func(m Mapping) bool { all = append(all, m); return true })
	if len(all) != 3 {
		t.Fatalf("ScanAll found %d", len(all))
	}
	var ranged []Mapping
	pt.ScanRange(0, mem.HugeSize*2, func(m Mapping) bool { ranged = append(ranged, m); return true })
	if len(ranged) != 2 {
		t.Fatalf("ScanRange found %d: %+v", len(ranged), ranged)
	}
	// Range that clips the huge page via overlap (starts mid-huge).
	ranged = nil
	pt.ScanRange(mem.HugeSize+mem.PageSize, mem.HugeSize*2, func(m Mapping) bool {
		ranged = append(ranged, m)
		return true
	})
	if len(ranged) != 1 || ranged[0].Kind != mem.Huge {
		t.Fatalf("overlapping range = %+v", ranged)
	}
}

// Property test: random map/unmap sequences keep Lookup consistent with
// a reference map.
func TestRandomAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pt := New()
		ref := map[uint64]uint64{} // vpn -> frame (base mappings only)
		for i := 0; i < 500; i++ {
			vpn := uint64(rng.Intn(1 << 14))
			va := vpn * mem.PageSize
			if rng.Intn(2) == 0 {
				frame := uint64(rng.Intn(1 << 20))
				_, err := pt.Map4K(va, frame)
				if _, exists := ref[vpn]; exists {
					if err == nil {
						return false
					}
				} else if err == nil {
					ref[vpn] = frame
				}
			} else {
				frame, err := pt.Unmap4K(va)
				want, exists := ref[vpn]
				if exists != (err == nil) {
					return false
				}
				if exists {
					if frame != want {
						return false
					}
					delete(ref, vpn)
				}
			}
		}
		if pt.Mapped4K() != uint64(len(ref)) {
			return false
		}
		for vpn, want := range ref {
			f0, kind, ok := pt.Lookup(vpn * mem.PageSize)
			if !ok || kind != mem.Base || f0 != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: collapse followed by split preserves every translation.
func TestCollapseSplitRoundTrip(t *testing.T) {
	f := func(hugeIdxRaw uint16, frameBaseRaw uint16) bool {
		hugeIdx := uint64(hugeIdxRaw % 64)
		frameBase := uint64(frameBaseRaw%128) * mem.PagesPerHuge
		pt := New()
		va0 := hugeIdx * mem.HugeSize
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			if _, err := pt.Map4K(va0+i*mem.PageSize, frameBase+i); err != nil {
				return false
			}
		}
		if err := pt.Collapse(va0); err != nil {
			return false
		}
		if err := pt.Split(va0); err != nil {
			return false
		}
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			f0, kind, ok := pt.Lookup(va0 + i*mem.PageSize)
			if !ok || kind != mem.Base || f0 != frameBase+i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestSpareLeavesComeBackNew checks the spare-leaf stack: Collapse and
// Map2M stack the leaves they detach, Split and Map4K's walk take them
// back, and a taken leaf holds exactly what a new leaf would. The
// stack keeps at most spareLeaves leaves.
func TestSpareLeavesComeBackNew(t *testing.T) {
	pt := New()
	populate := func(hva, frame uint64, mark bool) {
		t.Helper()
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			ref, err := pt.Map4K(hva+i*mem.PageSize, frame+i)
			if err != nil {
				t.Fatal(err)
			}
			if mark {
				ref.Mark()
			}
		}
	}
	// Region 0, every page accessed, collapses; region 1's Split takes
	// its leaf and must leave no accessed bit behind.
	populate(0, mem.PagesPerHuge, true)
	reused, _ := pt.freshLeaf(0)
	if err := pt.Collapse(0); err != nil {
		t.Fatal(err)
	}
	if pt.nSpare != 1 || pt.spare[0] != reused {
		t.Fatalf("Collapse stacked %d spares, want its leaf", pt.nSpare)
	}
	if err := pt.Map2M(mem.HugeSize, 4*mem.PagesPerHuge); err != nil {
		t.Fatal(err)
	}
	if err := pt.Split(mem.HugeSize); err != nil {
		t.Fatal(err)
	}
	var want Leaf
	for i := range want {
		want[i] = (4*mem.PagesPerHuge+uint64(i))<<frameShift | pteP
	}
	if l, live := pt.freshLeaf(mem.HugeSize); pt.nSpare != 0 || l != reused || *l != want || *live != entriesPerNode {
		t.Fatal("Split did not take the spare leaf back as a new one")
	}
	// Region 2's leaf, emptied after an access, is dropped by Map2M;
	// region 3's first Map4K takes it back through the walk.
	ref, err := pt.Map4K(2*mem.HugeSize+5*mem.PageSize, 7)
	if err != nil {
		t.Fatal(err)
	}
	ref.Mark()
	if _, err := pt.Unmap4K(2*mem.HugeSize + 5*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	empty, _ := pt.freshLeaf(2 * mem.HugeSize)
	if err := pt.Map2M(2*mem.HugeSize, 6*mem.PagesPerHuge); err != nil {
		t.Fatal(err)
	}
	if pt.nSpare != 1 || pt.spare[0] != empty {
		t.Fatalf("Map2M stacked %d spares, want the dropped leaf", pt.nSpare)
	}
	if _, err := pt.Map4K(3*mem.HugeSize+9*mem.PageSize, 8); err != nil {
		t.Fatal(err)
	}
	want = Leaf{9: 8<<frameShift | pteP}
	if l, live := pt.freshLeaf(3 * mem.HugeSize); pt.nSpare != 0 || l != empty || *l != want || *live != 1 {
		t.Fatal("Map4K did not take the spare leaf back as a new one")
	}
	// More collapses than the stack holds: the excess leaves are let go.
	for r := uint64(8); r < 8+spareLeaves+1; r++ {
		populate(r*mem.HugeSize, 2*r*mem.PagesPerHuge, false)
	}
	for r := uint64(8); r < 8+spareLeaves+1; r++ {
		if err := pt.Collapse(r * mem.HugeSize); err != nil {
			t.Fatal(err)
		}
	}
	if pt.nSpare != spareLeaves {
		t.Fatalf("spare stack holds %d leaves, want %d", pt.nSpare, spareLeaves)
	}
	// The top spare is region 23's full leaf; a Map4K in a fresh region
	// takes it and must find it holding none of region 23's words.
	full := pt.spare[spareLeaves-1]
	if _, err := pt.Map4K(30*mem.HugeSize+mem.PageSize, 9); err != nil {
		t.Fatal(err)
	}
	if l, live := pt.freshLeaf(30 * mem.HugeSize); l != full || *l != (Leaf{1: 9<<frameShift | pteP}) || *live != 1 {
		t.Fatal("Map4K did not take a collapsed region's leaf back as a new one")
	}
	if vs := pt.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit: %v", vs)
	}
}

func BenchmarkLookup(b *testing.B) {
	pt := New()
	for i := uint64(0); i < 1<<14; i++ {
		if _, err := pt.Map4K(i*mem.PageSize, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pt.Lookup(uint64(i%(1<<14)) * mem.PageSize)
	}
}

func BenchmarkMapUnmap4K(b *testing.B) {
	pt := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(i%(1<<16)) * mem.PageSize
		if _, err := pt.Map4K(va, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := pt.Unmap4K(va); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDirtyLog checks the destructive-mutation log: each of the five
// destructive operations logs its input region once per run of
// repeats, additions log nothing unless Map2M drops an emptied leaf,
// ClearDirty empties the log, and more distinct regions than the log
// holds saturate it to "all" until the next ClearDirty.
func TestDirtyLog(t *testing.T) {
	tb := New()
	region := func(r uint64) uint64 { return r * mem.HugeSize }
	for i := uint64(0); i < 4; i++ {
		if _, err := tb.Map4K(region(1)+i*mem.PageSize, 1000+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Map2M(region(2), 0); err != nil {
		t.Fatal(err)
	}
	if !tb.Clean() {
		t.Fatal("pure additions dirtied the log")
	}
	tb.Unmap4K(region(1))
	tb.Unmap4K(region(1) + mem.PageSize)
	if _, err := tb.Remap4K(region(1)+2*mem.PageSize, 2000); err != nil {
		t.Fatal(err)
	}
	if err := tb.Split(region(2)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Collapse(region(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Unmap2M(region(2)); err != nil {
		t.Fatal(err)
	}
	if got, all := tb.Dirty(); all || !slices.Equal(got, []uint64{1, 2}) {
		t.Fatalf("Dirty() = %v, %v; want [1 2], false", got, all)
	}
	tb.ClearDirty()
	if !tb.Clean() {
		t.Fatal("ClearDirty left the log dirty")
	}
	for r := uint64(0); r <= dirtyLogSize; r++ {
		if _, err := tb.Map4K(region(10+r), 5000+r); err != nil {
			t.Fatal(err)
		}
		tb.Unmap4K(region(10 + r))
		if got, all := tb.Dirty(); all != (r == dirtyLogSize) || !all && len(got) != int(r+1) {
			t.Fatalf("after %d regions: Dirty() = %d regions, all %v", r+1, len(got), all)
		}
	}
	tb.Unmap4K(region(1) + 3*mem.PageSize)
	if _, all := tb.Dirty(); !all {
		t.Fatal("a saturated log stopped saying all")
	}
	tb.ClearDirty()
	if _, all := tb.Dirty(); all || !tb.Clean() {
		t.Fatal("ClearDirty left a saturated log saturated")
	}
	// Region 10's leaf is empty; Map2M drops it and logs the region.
	if err := tb.Map2M(region(10), 0); err != nil {
		t.Fatal(err)
	}
	if got, all := tb.Dirty(); all || !slices.Equal(got, []uint64{10}) {
		t.Fatalf("Map2M over an emptied leaf: Dirty() = %v, %v; want [10], false", got, all)
	}
}

// TestRegionReverse checks the per-output-region counts and entries
// through base mappings, remaps, splits and collapses.
func TestRegionReverse(t *testing.T) {
	tb := New()
	reverse := func(region uint64) []Mapping {
		var ms []Mapping
		tb.RegionReverse(region, func(m Mapping) { ms = append(ms, m) })
		return ms
	}
	va := uint64(7) * mem.HugeSize
	for _, p := range []struct{ va, frame uint64 }{{va + 5*mem.PageSize, 512 + 9}, {va, 512 + 3}, {va + mem.PageSize, 4096 + 1}} {
		if _, err := tb.Map4K(p.va, p.frame); err != nil {
			t.Fatal(err)
		}
	}
	want := []Mapping{{VA: va, Frame: 512 + 3}, {VA: va + 5*mem.PageSize, Frame: 512 + 9}}
	if n, got := tb.RegionBasePages(1), reverse(1); n != 2 || !slices.Equal(got, want) {
		t.Fatalf("region 1: %d pages, %v; want 2, %v", n, got, want)
	}
	if _, err := tb.Remap4K(va, 4096+2); err != nil {
		t.Fatal(err)
	}
	if a, b := tb.RegionBasePages(1), tb.RegionBasePages(8); a != 1 || b != 2 {
		t.Fatalf("after remap: regions 1 and 8 hold %d and %d pages, want 1 and 2", a, b)
	}
	if err := tb.Map2M(0, 3*mem.PagesPerHuge); err != nil {
		t.Fatal(err)
	}
	if err := tb.Split(0); err != nil {
		t.Fatal(err)
	}
	if n := tb.RegionBasePages(3); n != mem.PagesPerHuge {
		t.Fatalf("after split: region 3 holds %d pages, want 512", n)
	}
	if err := tb.Collapse(0); err != nil {
		t.Fatal(err)
	}
	if n, got := tb.RegionBasePages(3), reverse(3); n != 0 || len(got) != 0 {
		t.Fatalf("after collapse: region 3 holds %d pages, %v", n, got)
	}
	if n := tb.RegionBasePages(1 << 30); n != 0 {
		t.Fatalf("a region with no reverse chunk holds %d pages", n)
	}
}

// TestMapRunMatchesMap4K checks MapRun against Map4K page by page on a
// twin: the same words, reverse entries, counts and memo, a clean
// audit, refs that mark the pages' own words, and refusals that change
// nothing.
func TestMapRunMatchesMap4K(t *testing.T) {
	run, each := New(), New()
	const base = uint64(3 * mem.HugeSize)
	for _, tb := range []*Table{run, each} {
		// A partly filled leaf, and a huge region next door.
		if _, err := tb.Map4K(base+2*mem.PageSize, 900); err != nil {
			t.Fatal(err)
		}
		if err := tb.Map2M(base+mem.HugeSize, 4*mem.PagesPerHuge); err != nil {
			t.Fatal(err)
		}
	}
	if got := run.UnmappedRun(base+3*mem.PageSize, 10); got != 10 {
		t.Fatalf("UnmappedRun past the mapped page = %d, want 10", got)
	}
	if got := run.UnmappedRun(base, 10); got != 2 {
		t.Fatalf("UnmappedRun up to the mapped page = %d, want 2", got)
	}
	if got := run.UnmappedRun(base+mem.HugeSize, 10); got != 0 {
		t.Fatalf("UnmappedRun in a huge region = %d, want 0", got)
	}
	frames := []uint64{77, 78, 79, 5000, 12}
	va := base + 3*mem.PageSize
	refs, err := run.MapRun(va, frames)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if _, err := each.Map4K(va+uint64(i)*mem.PageSize, f); err != nil {
			t.Fatal(err)
		}
	}
	refs.At(1).Mark()
	_, _, ref, _ := each.LookupRef(va + mem.PageSize)
	ref.Mark()
	for _, tb := range []*Table{run, each} {
		if vs := tb.CheckInvariants(); len(vs) != 0 {
			t.Fatal(vs)
		}
	}
	var ms [2][]Mapping
	for i, tb := range []*Table{run, each} {
		tb.ScanAll(func(m Mapping) bool { ms[i] = append(ms[i], m); return true })
	}
	if !slices.Equal(ms[0], ms[1]) || run.Mapped4K() != each.Mapped4K() {
		t.Fatalf("MapRun mapped %v, Map4K %v", ms[0], ms[1])
	}
	for i, f := range frames {
		p := va + uint64(i)*mem.PageSize
		if got, ok := run.ReverseLookup(f); !ok || got != p {
			t.Fatalf("reverse entry of frame %d = %#x, %v; want %#x", f, got, ok, p)
		}
		if run.Accessed(p) != (i == 1) {
			t.Fatalf("page %d accessed = %v", i, run.Accessed(p))
		}
	}
	for _, c := range []struct {
		va     uint64
		frames []uint64
	}{
		{base, []uint64{1, 2, 3}},                    // runs into a mapped page
		{base + mem.HugeSize, []uint64{1}},           // inside a huge mapping
		{base + 510*mem.PageSize, []uint64{1, 2, 3}}, // leaves its region
		{base + 20*mem.PageSize, []uint64{maxFrame + 1}},
	} {
		if _, err := run.MapRun(c.va, c.frames); err == nil {
			t.Fatalf("MapRun(%#x, %v) succeeded", c.va, c.frames)
		}
	}
	if run.Mapped4K() != each.Mapped4K() {
		t.Fatal("a refused MapRun mapped pages")
	}
}
