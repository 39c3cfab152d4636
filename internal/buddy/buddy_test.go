package buddy

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/audit"
	"repro/internal/mem"
)

const testPages = 16 * 1024 // 64 MiB

func TestNewAllFree(t *testing.T) {
	a := New(testPages)
	if a.TotalPages() != testPages {
		t.Fatalf("TotalPages = %d", a.TotalPages())
	}
	if a.FreePages() != testPages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	if a.LargestFreeOrder() != MaxOrder {
		t.Fatalf("LargestFreeOrder = %d", a.LargestFreeOrder())
	}
}

func TestNewNonPowerOfTwo(t *testing.T) {
	a := New(1000) // not a power of two
	if a.FreePages() != 1000 {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	// Allocate everything page by page.
	for i := 0; i < 1000; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("expected ErrNoMemory, got %v", err)
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	a := New(testPages)
	f, err := a.Alloc(3)
	if err != nil {
		t.Fatal(err)
	}
	if f%8 != 0 {
		t.Fatalf("block %#x not aligned to order 3", f)
	}
	if a.FreePages() != testPages-8 {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
	a.Free(f, 3)
	if a.FreePages() != testPages {
		t.Fatalf("FreePages after free = %d", a.FreePages())
	}
	// After freeing everything, memory should coalesce fully.
	if a.FreeBlockCount(MaxOrder) != testPages>>MaxOrder {
		t.Fatalf("max-order blocks = %d, want %d",
			a.FreeBlockCount(MaxOrder), testPages>>MaxOrder)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestAllocLowestFirst(t *testing.T) {
	a := New(testPages)
	f1, _ := a.Alloc(0)
	f2, _ := a.Alloc(0)
	if f1 != 0 || f2 != 1 {
		t.Fatalf("expected frames 0,1; got %d,%d", f1, f2)
	}
	a.Free(f1, 0)
	f3, _ := a.Alloc(0)
	if f3 != 0 {
		t.Fatalf("expected reuse of frame 0, got %d", f3)
	}
}

func TestAllocBadOrder(t *testing.T) {
	a := New(testPages)
	if _, err := a.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Error("Alloc(MaxOrder+1) succeeded")
	}
}

func TestAllocAt(t *testing.T) {
	a := New(testPages)
	// Targeted allocation in pristine memory.
	if err := a.AllocAt(512, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	if a.FrameFree(512) {
		t.Error("block still free after AllocAt")
	}
	// Same block again must fail.
	if err := a.AllocAt(512, mem.HugeOrder); !errors.Is(err, ErrNotFree) {
		t.Fatalf("double AllocAt: %v", err)
	}
	// Single page inside an untouched area.
	if err := a.AllocAt(12345, 0); err != nil {
		t.Fatal(err)
	}
	// A block only partly free: its first frame, 12344, is a free
	// order-0 block whose buddy was just taken.
	if err := a.AllocAt(12344, 1); !errors.Is(err, ErrNotFree) {
		t.Fatalf("AllocAt over a smaller free block: %v", err)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
	a.Free(512, mem.HugeOrder)
	a.Free(12345, 0)
	if a.FreePages() != testPages {
		t.Fatalf("FreePages = %d", a.FreePages())
	}
}

func TestAllocAtMisaligned(t *testing.T) {
	a := New(testPages)
	if err := a.AllocAt(1, 1); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("misaligned AllocAt: %v", err)
	}
	if err := a.AllocAt(testPages, 0); !errors.Is(err, ErrBadArgument) {
		t.Fatalf("out-of-range AllocAt: %v", err)
	}
}

func TestAllocAtInsideAllocated(t *testing.T) {
	a := New(testPages)
	f, _ := a.Alloc(mem.HugeOrder)
	if err := a.AllocAt(f+5, 0); !errors.Is(err, ErrNotFree) {
		t.Fatalf("AllocAt inside allocated: %v", err)
	}
}

func TestFreeMergesAcrossSplits(t *testing.T) {
	a := New(1024)
	var frames []uint64
	for i := 0; i < 1024; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, f)
	}
	// Free in random order; everything must merge back to one block.
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	for _, f := range frames {
		a.Free(f, 0)
	}
	if a.FreeBlockCount(MaxOrder) != 1 {
		t.Fatalf("expected single max-order block, got %d", a.FreeBlockCount(MaxOrder))
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := New(testPages)
	f, _ := a.Alloc(0)
	a.Free(f, 0)
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	a.Free(f, 0)
}

// TestFreeInsideFreeBlockPanics: freeing a block that lies inside a
// larger free block is a double free too, even though the freed frame
// does not start a free block itself; Free must not file an
// overlapping block.
func TestFreeInsideFreeBlockPanics(t *testing.T) {
	a := New(2 * mem.PagesPerHuge * 2)
	if err := a.AllocAt(0, MaxOrder); err != nil {
		t.Fatal(err)
	}
	a.Free(16, 4)
	free := a.FreePages()
	for _, c := range []struct {
		frame uint64
		order int
	}{{17, 0}, {16, 0}, {24, 3}, {16, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Free(%d, %d) inside the free block [16, 32) did not panic", c.frame, c.order)
				}
			}()
			a.Free(c.frame, c.order)
		}()
	}
	if a.FreePages() != free {
		t.Fatalf("FreePages = %d after the rejected frees, want %d", a.FreePages(), free)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

// TestContainingMatchesOrderProbe checks containing, behind Free's
// double-free test, FreeBlockAt and AllocAt, against its definition on
// fragmented books: for every frame, the free block that holds it is
// the one found by rounding the frame down to each order in turn and
// asking freeOrd whether a block of that order starts there.
func TestContainingMatchesOrderProbe(t *testing.T) {
	const pages = 4 * 1 << MaxOrder
	a := New(pages)
	for range pages {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < pages; i++ {
		if f := i * 40503 % pages; f%5 != 0 && f%7 != 3 && f>>MaxOrder != 2 {
			a.Free(f, 0)
		}
	}
	a.Free(2*1<<MaxOrder, MaxOrder) // one whole free order-10 block
	for f := uint64(0); f < pages; f++ {
		var wantStart uint64
		var wantOrder uint8
		wantOK := false
		for o := 0; o <= MaxOrder && !wantOK; o++ {
			if s := f &^ (1<<o - 1); a.freeOrd[s] == int8(o) {
				wantStart, wantOrder, wantOK = s, uint8(o), true
			}
		}
		start, order, ok := a.containing(f)
		if ok != wantOK || ok && (start != wantStart || order != wantOrder) {
			t.Fatalf("containing(%d) = %d, %d, %v; order probe gives %d, %d, %v",
				f, start, order, ok, wantStart, wantOrder, wantOK)
		}
	}
}

func TestReservation(t *testing.T) {
	a := New(testPages)
	r, err := a.Reserve(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Start() != 3*mem.PagesPerHuge {
		t.Fatalf("Start = %d", r.Start())
	}
	if a.ReservationCount() != 1 {
		t.Fatalf("ReservationCount = %d", a.ReservationCount())
	}
	// The reserved range is not available to general allocation.
	if err := a.AllocAt(r.Start(), 0); !errors.Is(err, ErrReserved) {
		t.Fatalf("AllocAt into reservation: %v", err)
	}
	if a.FrameFree(r.Start()) {
		t.Error("reserved page reported free")
	}
	// Claim a few pages then finish.
	for i := uint64(0); i < 10; i++ {
		if err := a.AllocReservedPage(3, r.Start()+i); err != nil {
			t.Fatal(err)
		}
	}
	if r.Allocated() != 10 {
		t.Fatalf("Allocated = %d", r.Allocated())
	}
	// Claiming the same page twice fails.
	if err := a.AllocReservedPage(3, r.Start()); !errors.Is(err, ErrNotFree) {
		t.Fatalf("double claim: %v", err)
	}
	n, err := a.FinishReservation(3)
	if err != nil || n != 10 {
		t.Fatalf("FinishReservation = %d, %v", n, err)
	}
	// 502 pages returned to free lists.
	if a.FreePages() != testPages-10 {
		t.Fatalf("FreePages = %d, want %d", a.FreePages(), testPages-10)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestReservationErrors(t *testing.T) {
	a := New(testPages)
	if _, err := a.Reserve(testPages / mem.PagesPerHuge); err == nil {
		t.Error("Reserve beyond end succeeded")
	}
	if _, err := a.Reserve(0); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(0); err == nil {
		t.Error("double Reserve succeeded")
	}
	if err := a.AllocReservedPage(5, 5*mem.PagesPerHuge); !errors.Is(err, ErrNotReserved) {
		t.Errorf("AllocReservedPage on unreserved: %v", err)
	}
	if _, err := a.FinishReservation(5); !errors.Is(err, ErrNotReserved) {
		t.Errorf("FinishReservation on unreserved: %v", err)
	}
	// Reserving an occupied region fails.
	if err := a.AllocAt(1*mem.PagesPerHuge, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(1); !errors.Is(err, ErrNotFree) {
		t.Errorf("Reserve occupied: %v", err)
	}
}

func TestFMFI(t *testing.T) {
	a := New(testPages)
	if got := a.FMFI(mem.HugeOrder); got != 0 {
		t.Fatalf("pristine FMFI = %v", got)
	}
	// Fragment: allocate every other page in a large area.
	for f := uint64(0); f < 8192; f += 2 {
		if err := a.AllocAt(f, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := a.FMFI(mem.HugeOrder)
	if got <= 0 || got >= 1 {
		t.Fatalf("fragmented FMFI = %v, want in (0,1)", got)
	}
	// FMFI at order 0 is always 0 (all free memory usable as pages).
	if a.FMFI(0) != 0 {
		t.Fatalf("FMFI(0) = %v", a.FMFI(0))
	}
}

func TestFMFIEmpty(t *testing.T) {
	a := New(256)
	for {
		if _, err := a.Alloc(0); err != nil {
			break
		}
	}
	if a.FMFI(mem.HugeOrder) != 1 {
		t.Fatalf("FMFI with no free memory = %v", a.FMFI(mem.HugeOrder))
	}
	if a.LargestFreeOrder() != -1 {
		t.Fatalf("LargestFreeOrder = %d", a.LargestFreeOrder())
	}
}

func TestFreeHugeCandidates(t *testing.T) {
	a := New(4096) // 4 max-order blocks = 8 huge candidates
	if got := a.FreeHugeCandidates(); got != 8 {
		t.Fatalf("FreeHugeCandidates = %d, want 8", got)
	}
	// Shatter one huge region.
	if err := a.AllocAt(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := a.FreeHugeCandidates(); got != 7 {
		t.Fatalf("FreeHugeCandidates after shatter = %d, want 7", got)
	}
}

func TestFreeRegions(t *testing.T) {
	a := New(4096)
	regions := a.FreeRegionsAtLeast(1, nil)
	if len(regions) != 1 || regions[0].Start != 0 || regions[0].Pages != 4096 {
		t.Fatalf("pristine FreeRegions = %v", regions)
	}
	// Punch a hole.
	if err := a.AllocAt(1000, 0); err != nil {
		t.Fatal(err)
	}
	regions = a.FreeRegionsAtLeast(1, regions)
	if len(regions) != 2 {
		t.Fatalf("FreeRegions after hole = %v", regions)
	}
	if regions[0].End() != 1000 || regions[1].Start != 1001 {
		t.Fatalf("hole boundaries wrong: %v", regions)
	}
}

func TestFreeRegionsEmpty(t *testing.T) {
	a := New(64)
	for i := 0; i < 64; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.FreeRegionsAtLeast(1, nil); got != nil {
		t.Fatalf("FreeRegions when full = %v", got)
	}
}

// runMinimums are the run lengths FreeRegionsAtLeast is checked at:
// every sweep order from 0 (minimum 1) to MaxOrder (4096 and up), and
// both sides of 64.
var runMinimums = []uint64{1, 2, 3, 5, 63, 64, 100, 512, 4096}

// frameRuns is FreeRegionsAtLeast's reference: the maximal runs of
// frames that FrameFree reports free, found frame by frame.
func frameRuns(a *Allocator) []mem.Region {
	var out []mem.Region
	for f := uint64(0); f < a.TotalPages(); f++ {
		if !a.FrameFree(f) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].End() == f {
			out[n-1].Pages++
		} else {
			out = append(out, mem.Region{Start: f, Pages: 1})
		}
	}
	return out
}

// checkRuns fails the test unless FreeRegionsAtLeast returns the runs
// of frameRuns that are long enough, at every minimum in runMinimums.
func checkRuns(t *testing.T, what string, a *Allocator) {
	t.Helper()
	all := frameRuns(a)
	for _, min := range runMinimums {
		want := slices.DeleteFunc(slices.Clone(all), func(r mem.Region) bool { return r.Pages < min })
		if got := a.FreeRegionsAtLeast(min, nil); !slices.Equal(got, want) {
			t.Fatalf("%s: FreeRegionsAtLeast(%d) = %v, per-frame runs %v", what, min, got, want)
		}
	}
}

func TestFreeRegionsAtLeast(t *testing.T) {
	// withFree allocates every frame of a total-page arena, then frees
	// the given runs frame by frame, letting buddies merge.
	withFree := func(total uint64, runs ...mem.Region) *Allocator {
		a := New(total)
		for i := uint64(0); i < total; i++ {
			if _, err := a.Alloc(0); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range runs {
			for f := r.Start; f < r.End(); f++ {
				a.Free(f, 0)
			}
		}
		return a
	}
	reserved := func(total uint64, his ...uint64) *Allocator {
		a := New(total)
		for _, hi := range his {
			if _, err := a.Reserve(hi); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
	rg := func(start, pages uint64) mem.Region { return mem.Region{Start: start, Pages: pages} }
	cases := []struct {
		name string
		a    *Allocator
		min  uint64
		want []mem.Region
	}{
		{"pristine, frame 0 to arena end", New(4096), 64, []mem.Region{rg(0, 4096)}},
		{"runs of one, two and three frames", withFree(1024, rg(100, 1), rg(200, 2), rg(301, 3)),
			1, []mem.Region{rg(100, 1), rg(200, 2), rg(301, 3)}},
		{"minimum 2", withFree(1024, rg(100, 1), rg(200, 2), rg(301, 3)),
			2, []mem.Region{rg(200, 2), rg(301, 3)}},
		{"minimum 3", withFree(1024, rg(100, 1), rg(200, 2), rg(301, 3)),
			3, []mem.Region{rg(301, 3)}},
		{"total not a multiple of 32", New(1000), 64, []mem.Region{rg(0, 1000)}},
		{"full", withFree(1024), 64, nil},
		{"63 vs 64 pages", withFree(1024, rg(100, 63), rg(200, 64), rg(333, 64), rg(500, 63)),
			64, []mem.Region{rg(200, 64), rg(333, 64)}},
		{"runs at frame 0 and the unaligned arena end",
			withFree(1000, rg(0, 64), rg(100, 10), rg(931, 69)), 64,
			[]mem.Region{rg(0, 64), rg(931, 69)}},
		{"run spanning order-10 boundaries", withFree(4096, rg(1000, 100), rg(1500, 1600)),
			64, []mem.Region{rg(1000, 100), rg(1500, 1600)}},
		{"minimum above 64", withFree(4096, rg(1000, 100), rg(1500, 1600)),
			101, []mem.Region{rg(1500, 1600)}},
		{"runs ending in reserved regions", reserved(4096, 1, 4), 64,
			[]mem.Region{rg(0, 512), rg(1024, 1024), rg(2560, 1536)}},
	}
	for _, c := range cases {
		buf := []mem.Region{rg(7, 7)} // stale contents must not leak through
		got := c.a.FreeRegionsAtLeast(c.min, buf)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: FreeRegionsAtLeast(%d) = %v, want %v", c.name, c.min, got, c.want)
		}
		checkRuns(t, c.name, c.a)
	}
}

// TestRandomOpsInvariant drives the allocator with a random mix of
// operations and checks invariants and conservation of pages.
func TestRandomOpsInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := New(4096)
		type alloc struct {
			frame uint64
			order int
		}
		var live []alloc
		for step := 0; step < 300; step++ {
			switch rng.Intn(4) {
			case 0, 1: // alloc random order
				o := rng.Intn(MaxOrder + 1)
				if f, err := a.Alloc(o); err == nil {
					live = append(live, alloc{f, o})
				}
			case 2: // free one
				if len(live) > 0 {
					i := rng.Intn(len(live))
					a.Free(live[i].frame, live[i].order)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
			case 3: // targeted alloc
				o := rng.Intn(3)
				f := uint64(rng.Intn(4096)) &^ ((uint64(1) << o) - 1)
				if f+(uint64(1)<<o) <= 4096 {
					if err := a.AllocAt(f, o); err == nil {
						live = append(live, alloc{f, o})
					}
				}
			}
		}
		if vs := a.CheckInvariants(); len(vs) != 0 {
			t.Logf("invariant: %v", audit.Report(vs))
			return false
		}
		var allocated uint64
		for _, l := range live {
			allocated += uint64(1) << l.order
		}
		return a.FreePages()+allocated == 4096
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(f, 0)
	}
}

func BenchmarkAllocAtHuge(b *testing.B) {
	a := New(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi := uint64(i) % (1 << 20 / mem.PagesPerHuge)
		if err := a.AllocAt(hi*mem.PagesPerHuge, mem.HugeOrder); err != nil {
			b.Fatal(err)
		}
		a.Free(hi*mem.PagesPerHuge, mem.HugeOrder)
	}
}
