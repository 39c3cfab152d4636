package contig

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func mk(regions ...mem.Region) *List {
	l := New()
	l.Rebuild(regions)
	return l
}

// regions walks the list in address order.
func regions(l *List) []mem.Region {
	var out []mem.Region
	for n := l.head; n != nil; n = n.next {
		out = append(out, n.region)
	}
	return out
}

// totalFree sums the frames of every region in the list.
func totalFree(l *List) uint64 {
	var sum uint64
	for _, r := range regions(l) {
		sum += r.Pages
	}
	return sum
}

func TestEmpty(t *testing.T) {
	l := New()
	if l.Len() != 0 || totalFree(l) != 0 {
		t.Fatalf("empty list has content")
	}
	if _, ok := l.FindNextFitAligned(1, 1); ok {
		t.Error("FindNextFitAligned on empty succeeded")
	}
	if _, ok := l.TakeLargest(10); ok {
		t.Error("TakeLargest on empty succeeded")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRebuildAndFind(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 100}, mem.Region{Start: 200, Pages: 50})
	if l.Len() != 2 || totalFree(l) != 150 {
		t.Fatalf("Len=%d TotalFree=%d", l.Len(), totalFree(l))
	}
	f, ok := l.FindNextFitAligned(30, 1)
	if !ok || f != 0 {
		t.Fatalf("FindNextFitAligned = %d, %v", f, ok)
	}
	if totalFree(l) != 120 {
		t.Fatalf("TotalFree = %d", totalFree(l))
	}
	// Next-fit resumes at the same (shrunken) region.
	f2, ok := l.FindNextFitAligned(70, 1)
	if !ok || f2 != 30 {
		t.Fatalf("second FindNextFitAligned = %d, %v", f2, ok)
	}
	// First region exhausted; next fit moves on.
	f3, ok := l.FindNextFitAligned(50, 1)
	if !ok || f3 != 200 {
		t.Fatalf("third FindNextFitAligned = %d, %v", f3, ok)
	}
	if l.Len() != 0 {
		t.Fatalf("list should be empty, Len=%d", l.Len())
	}
}

func TestNextFitWraps(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 10}, mem.Region{Start: 100, Pages: 10})
	// Move cursor to second region.
	if f, ok := l.FindNextFitAligned(10, 1); !ok || f != 0 {
		t.Fatalf("first fit = %d, %v", f, ok)
	}
	// Request too large for remaining region -> wrap and fail.
	if _, ok := l.FindNextFitAligned(11, 1); ok {
		t.Error("oversized request succeeded")
	}
	// Exact fit on remaining region.
	if f, ok := l.FindNextFitAligned(10, 1); !ok || f != 100 {
		t.Fatalf("wrap fit = %d, %v", f, ok)
	}
}

func TestFindZeroPages(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 10})
	if _, ok := l.FindNextFitAligned(0, 1); ok {
		t.Error("FindNextFitAligned(0, 1) succeeded")
	}
}

func TestFindNextFitAligned(t *testing.T) {
	l := mk(mem.Region{Start: 100, Pages: 2000})
	f, ok := l.FindNextFitAligned(512, 512)
	if !ok || f != 512 {
		t.Fatalf("aligned fit = %d, %v", f, ok)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Prefix [100,512) and suffix [1024, 2100) both remain.
	if totalFree(l) != 2000-512 {
		t.Fatalf("TotalFree = %d", totalFree(l))
	}
	regions := regions(l)
	if len(regions) != 2 || regions[0].Start != 100 || regions[0].Pages != 412 ||
		regions[1].Start != 1024 {
		t.Fatalf("regions = %v", regions)
	}
}

func TestFindNextFitAlignedAlreadyAligned(t *testing.T) {
	l := mk(mem.Region{Start: 1024, Pages: 600})
	f, ok := l.FindNextFitAligned(512, 512)
	if !ok || f != 1024 {
		t.Fatalf("aligned fit = %d, %v", f, ok)
	}
	regions := regions(l)
	if len(regions) != 1 || regions[0].Start != 1536 || regions[0].Pages != 88 {
		t.Fatalf("regions = %v", regions)
	}
}

func TestFindNextFitAlignedNoFit(t *testing.T) {
	// Region big enough in raw pages but not after alignment skip.
	l := mk(mem.Region{Start: 1, Pages: 512})
	if _, ok := l.FindNextFitAligned(512, 512); ok {
		t.Error("aligned fit found where alignment makes it impossible")
	}
	if _, ok := l.FindNextFitAligned(0, 512); ok {
		t.Error("zero-page aligned fit succeeded")
	}
	if _, ok := l.FindNextFitAligned(512, 0); ok {
		t.Error("zero-align fit succeeded")
	}
}

func TestLargestAndTakeLargest(t *testing.T) {
	l := mk(
		mem.Region{Start: 0, Pages: 10},
		mem.Region{Start: 100, Pages: 500},
		mem.Region{Start: 1000, Pages: 50},
	)
	taken, ok := l.TakeLargest(200)
	if !ok || taken.Start != 100 || taken.Pages != 200 {
		t.Fatalf("TakeLargest = %v, %v", taken, ok)
	}
	// The largest region is now [300, 600): the next take comes from it.
	taken2, ok := l.TakeLargest(1000)
	if !ok || taken2.Start != 300 || taken2.Pages != 300 {
		t.Fatalf("TakeLargest clamped = %v, %v", taken2, ok)
	}
	if got := regions(l); len(got) != 2 || got[0] != (mem.Region{Start: 0, Pages: 10}) ||
		got[1] != (mem.Region{Start: 1000, Pages: 50}) {
		t.Fatalf("regions after takes = %v", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertMerging(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 10}, mem.Region{Start: 20, Pages: 10})
	// Fill the gap: all three should merge into one region.
	l.Insert(mem.Region{Start: 10, Pages: 10})
	if l.Len() != 1 {
		t.Fatalf("Len after merging insert = %d (%s)", l.Len(), l)
	}
	r := regions(l)[0]
	if r.Start != 0 || r.Pages != 30 {
		t.Fatalf("merged region = %v", r)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertVariants(t *testing.T) {
	l := New()
	l.Insert(mem.Region{Start: 100, Pages: 10}) // into empty
	l.Insert(mem.Region{Start: 0, Pages: 10})   // before head, no merge
	l.Insert(mem.Region{Start: 200, Pages: 10}) // after tail, no merge
	l.Insert(mem.Region{Start: 110, Pages: 5})  // merge with predecessor
	l.Insert(mem.Region{Start: 95, Pages: 5})   // merge with successor
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if totalFree(l) != 40 {
		t.Fatalf("TotalFree = %d", totalFree(l))
	}
	if l.Len() != 3 {
		t.Fatalf("Len = %d (%s)", l.Len(), l)
	}
	l.Insert(mem.Region{}) // no-op
	if l.Len() != 3 {
		t.Fatalf("empty insert changed list")
	}
}

func TestInsertOverlapPanics(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 10})
	defer func() {
		if recover() == nil {
			t.Error("overlapping insert did not panic")
		}
	}()
	l.Insert(mem.Region{Start: 5, Pages: 10})
}

func TestRebuildUnsortedPanics(t *testing.T) {
	l := New()
	defer func() {
		if recover() == nil {
			t.Error("unsorted rebuild did not panic")
		}
	}()
	l.Rebuild([]mem.Region{{Start: 100, Pages: 10}, {Start: 0, Pages: 10}})
}

func TestStringer(t *testing.T) {
	l := mk(mem.Region{Start: 0, Pages: 1})
	if l.String() == "" {
		t.Error("empty String")
	}
}

// Property: any sequence of aligned finds and inserts conserves pages
// and preserves invariants.
func TestRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := New()
		l.Rebuild([]mem.Region{{Start: 0, Pages: 1 << 16}})
		free := uint64(1 << 16)
		type taken struct{ start, pages uint64 }
		var outs []taken
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 || len(outs) == 0 {
				pages := uint64(rng.Intn(1024) + 1)
				align := []uint64{1, 8, mem.PagesPerHuge}[rng.Intn(3)]
				if f0, ok := l.FindNextFitAligned(pages, align); ok {
					if f0%align != 0 {
						t.Logf("FindNextFitAligned(%d, %d) = %d", pages, align, f0)
						return false
					}
					outs = append(outs, taken{f0, pages})
					free -= pages
				}
			} else {
				i := rng.Intn(len(outs))
				l.Insert(mem.Region{Start: outs[i].start, Pages: outs[i].pages})
				free += outs[i].pages
				outs[i] = outs[len(outs)-1]
				outs = outs[:len(outs)-1]
			}
			if totalFree(l) != free {
				return false
			}
			if err := l.CheckInvariants(); err != nil {
				t.Logf("invariants: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCheckInvariantsCatchesDrift breaks each rule CheckInvariants
// states on a list of three regions and expects an error for each.
func TestCheckInvariantsCatchesDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(l *List)
	}{
		{"broken prev link", func(l *List) { l.head.next.prev = nil }},
		{"overlap", func(l *List) { l.head.region.Pages = 151 }},
		{"empty region", func(l *List) { l.head.next.region.Pages = 0 }},
		{"tail mismatch", func(l *List) { l.tail = l.head }},
		{"count", func(l *List) { l.count++ }},
		{"nil cursor", func(l *List) { l.cursor = nil }},
	} {
		l := mk(mem.Region{Start: 0, Pages: 100}, mem.Region{Start: 150, Pages: 50}, mem.Region{Start: 400, Pages: 8})
		if err := l.CheckInvariants(); err != nil {
			t.Fatalf("%s: baseline: %v", tc.name, err)
		}
		tc.mutate(l)
		if l.CheckInvariants() == nil {
			t.Errorf("%s: CheckInvariants missed the drift", tc.name)
		}
	}
}
