package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestMapLookup4K(t *testing.T) {
	pt := New()
	if err := pt.Map4K(0x1000, 42); err != nil {
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
	if err := pt.Map4K(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(0x1000, 2); !errors.Is(err, ErrMapped) {
		t.Fatalf("double map: %v", err)
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
	if err := pt.Map4K(0, 7); err != nil {
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
	if err := pt2.Map4K(0x1000, 9); !errors.Is(err, ErrMapped) {
		t.Errorf("Map4K under huge: %v", err)
	}
}

// TestUnmap4KMissAllocsNothing pins the reclaim paths' expected miss:
// unmapping an absent page (no PTE node, or an empty PTE slot) or a
// huge-mapped one returns a sentinel without allocating.
func TestUnmap4KMissAllocsNothing(t *testing.T) {
	pt := New()
	if err := pt.Map4K(0x5000, 3); err != nil {
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
	if err := pt.Map4K(0, 7); err != nil {
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
	if err := pt.Map4K(0x5000, 3); err != nil {
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
		if err := pt.Map4K(i*mem.PageSize, 1024+i); err != nil {
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
		if err := pt.Map4K(i*mem.PageSize, frame); err != nil {
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
		if err := pt.Map4K(i*mem.PageSize, 100+i); err != nil {
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
		if err := pt.Map4K(i*mem.PageSize, 1024+i); err != nil {
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
	if err := pt.Map4K(0, 5); err != nil {
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

func TestWalkSteps(t *testing.T) {
	pt := New()
	if err := pt.Map4K(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	if got := pt.WalkSteps(0); got != WalkStepsBase {
		t.Errorf("base WalkSteps = %d", got)
	}
	if got := pt.WalkSteps(mem.HugeSize); got != WalkStepsHuge {
		t.Errorf("huge WalkSteps = %d", got)
	}
	if got := pt.WalkSteps(1 << 30); got != WalkStepsBase {
		t.Errorf("unmapped WalkSteps = %d", got)
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
	if err := pt.Map4K(mem.HugeSize, 7); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(mem.HugeSize+mem.PageSize, 8); err != nil {
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
	if err := pt.Map4K(0, 1); err != nil {
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
	if err := pt.Map4K(0x1000, 1); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map2M(mem.HugeSize, 512); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map4K(1<<30, 2); err != nil {
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
				err := pt.Map4K(va, frame)
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
			if err := pt.Map4K(va0+i*mem.PageSize, frameBase+i); err != nil {
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

func BenchmarkLookup(b *testing.B) {
	pt := New()
	for i := uint64(0); i < 1<<14; i++ {
		if err := pt.Map4K(i*mem.PageSize, i); err != nil {
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
		if err := pt.Map4K(va, uint64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := pt.Unmap4K(va); err != nil {
			b.Fatal(err)
		}
	}
}
