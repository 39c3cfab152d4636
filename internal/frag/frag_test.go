package frag

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/audit"
	"repro/internal/buddy"
	"repro/internal/mem"
)

const pages = 64 * 1024 // 256 MiB

func TestProbePristine(t *testing.T) {
	a := buddy.New(pages)
	r := Probe(a)
	if r.FMFI != 0 {
		t.Errorf("pristine FMFI = %v", r.FMFI)
	}
	if r.FreePages != pages {
		t.Errorf("FreePages = %d", r.FreePages)
	}
	if r.FreeHugeRegions != pages/mem.PagesPerHuge {
		t.Errorf("FreeHugeRegions = %d", r.FreeHugeRegions)
	}
	if r.LargestOrder != buddy.MaxOrder {
		t.Errorf("LargestOrder = %d", r.LargestOrder)
	}
	if r.String() == "" {
		t.Error("empty String")
	}
}

func TestFragmentToTarget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 42)
	got := f.FragmentTo(0.8, 0.9)
	if got < 0.8 {
		t.Fatalf("achieved FMFI = %v, want >= 0.8", got)
	}
	if f.HeldPages() == 0 {
		t.Fatal("no pages held")
	}
	// Free memory remains substantial but shattered.
	rep := Probe(a)
	if rep.FreePages == 0 {
		t.Error("fragmenter consumed all memory")
	}
	if rep.FreeHugeRegions > pages/mem.PagesPerHuge/4 {
		t.Errorf("too many huge candidates remain: %d", rep.FreeHugeRegions)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestFragmentToZeroTarget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 1)
	if got := f.FragmentTo(0, 0.5); got != 0 {
		t.Errorf("FMFI = %v", got)
	}
	if f.HeldPages() != 0 {
		t.Errorf("held %d pages for zero target", f.HeldPages())
	}
}

func TestFragmentBudget(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 7)
	f.FragmentTo(0.99, 0.01) // tiny budget
	if uint64(f.HeldPages()) > pages/100+mem.PagesPerHuge {
		t.Errorf("budget exceeded: held %d", f.HeldPages())
	}
}

func TestFragmentBadBudgetDefaults(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 7)
	got := f.FragmentTo(0.5, -1) // invalid fraction falls back to 1
	if got < 0.5 {
		t.Errorf("achieved FMFI = %v", got)
	}
}

func TestReleaseAllRestores(t *testing.T) {
	a := buddy.New(pages)
	f := New(a, 42)
	f.FragmentTo(0.8, 0.9)
	f.ReleaseAll()
	if f.HeldPages() != 0 {
		t.Fatalf("held %d after release", f.HeldPages())
	}
	if a.FreePages() != pages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if got := a.FMFI(mem.HugeOrder); got != 0 {
		t.Fatalf("FMFI after full release = %v", got)
	}
}

func TestFragmentOutOfMemoryStops(t *testing.T) {
	a := buddy.New(1024) // tiny arena
	f := New(a, 9)
	got := f.FragmentTo(0.9999, 1)
	// Must terminate once Alloc(HugeOrder) fails, which takes nothing,
	// so free pages and held pages account for everything.
	if a.FreePages()+uint64(f.HeldPages()) != 1024 {
		t.Fatalf("page leak: free=%d held=%d", a.FreePages(), f.HeldPages())
	}
	_ = got
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, int) {
		a := buddy.New(pages)
		f := New(a, 123)
		fm := f.FragmentTo(0.7, 0.9)
		return fm, f.HeldPages()
	}
	f1, h1 := run()
	f2, h2 := run()
	if f1 != f2 || h1 != h2 {
		t.Errorf("non-deterministic: (%v,%d) vs (%v,%d)", f1, h1, f2, h2)
	}
}

// lockPages is a 2560 MiB allocator.
const lockPages = 2560 * 256

// digest hashes the allocator's free runs, its FMFI and the
// fragmenter's held-page and held-region counts, so one constant pins
// the whole fragmented state.
func digest(a *buddy.Allocator, f *Fragmenter) uint64 {
	var buf []byte
	for _, r := range a.FreeRegionsAtLeast(1, nil) {
		buf = binary.LittleEndian.AppendUint64(buf, r.Start)
		buf = binary.LittleEndian.AppendUint64(buf, r.Pages)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(a.FMFI(mem.HugeOrder)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.HeldPages()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.HeldRegions()))
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// TestLayerLock pins the fragmenter's exact output against digests
// recorded from the map-based implementation it replaced: which frames
// stay pinned, the order regions are released in, and how a second
// FragmentTo on a partly released fragmenter extends and reshuffles the
// region list. Any change to RNG use or release order moves a digest.
func TestLayerLock(t *testing.T) {
	a := buddy.New(lockPages)
	f := New(a, 20230508)
	steps := []struct {
		name string
		do   func()
		want uint64
	}{
		{"FragmentTo", func() { f.FragmentTo(0.96, 0.55) }, 0x307824fb12b622ec},
		{"ReleaseRegions(1)", func() { f.ReleaseRegions(1) }, 0x4141ed724d5288e2},
		{"ReleaseRegions(10)", func() { f.ReleaseRegions(10) }, 0x690dad40133f99bb},
		{"FragmentTo again", func() { f.FragmentTo(0.96, 0.55) }, 0xf3b2eb1e089246c4},
		{"ReleaseRegions(10) again", func() { f.ReleaseRegions(10) }, 0x56459460182bf8d8},
		{"ReleaseRegions(all)", func() { f.ReleaseRegions(f.HeldRegions()) }, 0x77791369b3e71aaf},
		{"FragmentTo after full release", func() { f.FragmentTo(0.96, 0.55) }, 0x90ef27b0791db3f},
		{"ReleaseAll", f.ReleaseAll, 0x77791369b3e71aaf},
	}
	for _, s := range steps {
		s.do()
		if got := digest(a, f); got != s.want {
			t.Errorf("%s: digest %#x, want %#x (held %d pages in %d regions)",
				s.name, got, s.want, f.HeldPages(), f.HeldRegions())
		}
	}
	if a.FreePages() != lockPages {
		t.Errorf("FreePages after ReleaseAll = %d, want %d", a.FreePages(), lockPages)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

// TestReleaseRegionsZeroAllocs pins the recovery path the engines run
// every few ticks: releasing one region allocates nothing.
func TestReleaseRegionsZeroAllocs(t *testing.T) {
	a := buddy.New(lockPages)
	f := New(a, 20230508)
	f.FragmentTo(0.96, 0.55)
	if allocs := testing.AllocsPerRun(100, func() { f.ReleaseRegions(1) }); allocs != 0 {
		t.Errorf("ReleaseRegions(1) allocates %v times per call, want 0", allocs)
	}
}
