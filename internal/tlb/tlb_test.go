package tlb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newSmall() *TLB {
	cfg := DefaultConfig()
	cfg.Sets = 4
	cfg.Ways = 2
	return New(cfg)
}

func TestLookupInsert(t *testing.T) {
	tl := newSmall()
	if tl.Lookup(0x1000, mem.Base) {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(0x1000, mem.Base)
	if !tl.Lookup(0x1000, mem.Base) {
		t.Fatal("miss after insert")
	}
	// Base entry does not satisfy a huge lookup and vice versa.
	if tl.Lookup(0x1000, mem.Huge) {
		t.Fatal("base entry satisfied huge lookup")
	}
}

func TestEntries(t *testing.T) {
	tl := newSmall()
	if tl.Entries() != 8 {
		t.Fatalf("Entries = %d", tl.Entries())
	}
	if New(DefaultConfig()).Entries() != 1536 {
		t.Fatalf("default geometry != 1536 entries")
	}
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{{Sets: 0, Ways: 1}, {Sets: 1, Ways: 0}, {Sets: 1, Ways: 9}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on bad geometry %dx%d", cfg.Sets, cfg.Ways)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHugeEntryReach(t *testing.T) {
	tl := newSmall()
	tl.Insert(0, mem.Huge)
	// Any address within the 2 MiB region hits.
	if !tl.Lookup(mem.HugeSize-1, mem.Huge) {
		t.Fatal("huge entry did not cover its region")
	}
	if tl.Lookup(mem.HugeSize, mem.Huge) {
		t.Fatal("huge entry covered the next region")
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.Ways = 2
	tl := New(cfg)
	tl.Insert(0x0000, mem.Base)
	tl.Insert(0x1000, mem.Base)
	tl.Lookup(0x0000, mem.Base) // make 0x0000 MRU
	tl.Insert(0x2000, mem.Base) // evicts 0x1000
	if !tl.Lookup(0x0000, mem.Base) {
		t.Error("MRU entry evicted")
	}
	if tl.Lookup(0x1000, mem.Base) {
		t.Error("LRU entry survived")
	}
	if tl.Stats().Evictions != 1 {
		t.Errorf("Evictions = %d", tl.Stats().Evictions)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tl := newSmall()
	tl.Insert(0x1000, mem.Base)
	tl.Insert(0x1000, mem.Base)
	if tl.Stats().Insert4K != 1 {
		t.Errorf("duplicate insert counted: %d", tl.Stats().Insert4K)
	}
}

// TestInsertAfterFlushNoDuplicate is the regression test for the
// Insert victim scan: a flush hole earlier in the set must not shadow
// an entry for the same tag in a later way, or the set ends up with
// two valid copies of one translation and silently loses a way of
// reach. Insert must scan the whole set for the tag before it picks a
// victim.
func TestInsertAfterFlushNoDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sets = 1
	cfg.Ways = 2
	tl := New(cfg)
	tl.Insert(0x0000, mem.Base) // way 0
	tl.Insert(0x1000, mem.Base) // way 1
	tl.FlushPage(0x0000)        // hole at way 0
	tl.Insert(0x1000, mem.Base) // present in way 1: must not copy into the hole
	tag, si := tl.tagOf(0x1000, mem.Base)
	valid := 0
	for _, tg := range tl.set(si) {
		if tg == tag {
			valid++
		}
	}
	if valid != 1 {
		t.Fatalf("set holds %d valid entries for one tag, want 1", valid)
	}
	if got := tl.Stats().Insert4K; got != 2 {
		t.Errorf("re-insert of a present entry counted: Insert4K = %d, want 2", got)
	}
	// The flush hole must still be free: a third entry fits without an
	// eviction and every live tag keeps hitting.
	tl.Insert(0x2000, mem.Base)
	if ev := tl.Stats().Evictions; ev != 0 {
		t.Errorf("Evictions = %d, want 0 (duplicate consumed the free way)", ev)
	}
	if !tl.Lookup(0x1000, mem.Base) || !tl.Lookup(0x2000, mem.Base) {
		t.Error("entries missing after insert into flushed way")
	}
}

func TestFlushPage(t *testing.T) {
	tl := newSmall()
	tl.Insert(0x1000, mem.Base)
	tl.FlushPage(0x1000)
	if tl.Lookup(0x1000, mem.Base) {
		t.Error("entry survived FlushPage")
	}
	if tl.Stats().Flushes != 1 {
		t.Errorf("Flushes = %d", tl.Stats().Flushes)
	}
}

func TestFlushHugeRegion(t *testing.T) {
	tl := New(DefaultConfig())
	tl.Insert(0, mem.Huge)
	tl.Insert(5*mem.PageSize, mem.Base)
	tl.Insert(mem.HugeSize+mem.PageSize, mem.Base) // outside region
	tl.FlushHugeRegion(100)
	if tl.Lookup(0, mem.Huge) || tl.Lookup(5*mem.PageSize, mem.Base) {
		t.Error("region entries survived flush")
	}
	if !tl.Lookup(mem.HugeSize+mem.PageSize, mem.Base) {
		t.Error("entry outside region flushed")
	}
}

// TestFlushHugeRegionRebuildsSummary: the region summary a flush
// rebuilds still covers every surviving base and huge entry, so later
// flushes of those regions, through the batch kernel's fills too,
// still find their entries; a region never filled flushes nothing.
func TestFlushHugeRegionRebuildsSummary(t *testing.T) {
	tl := New(DefaultConfig())
	for r := uint64(0); r < 4; r++ {
		tl.Insert(r<<mem.HugeShift|5<<mem.PageShift, mem.Base)
		tl.Insert(r<<mem.HugeShift, mem.Huge)
	}
	va := []uint64{4<<mem.HugeShift | 7<<mem.PageShift, 5 << mem.HugeShift}
	tl.AccessNestedBatch(va, va, []uint32{tl.SetIndexOf(va[0], mem.Base), tl.SetIndexOf(va[1], mem.Huge)},
		[]uint8{PackKinds(mem.Base, mem.Base, mem.Base), PackKinds(mem.Huge, mem.Huge, mem.Huge)})
	tl.FlushHugeRegion(0)
	for r := uint64(1); r < 8; r++ {
		if vs := tl.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("before flushing region %d: %v", r, vs)
		}
		want := uint64(0) // regions 1..3 hold two entries, 4 and 5 one
		switch {
		case r < 4:
			want = 2
		case r < 6:
			want = 1
		}
		before := tl.Stats().Flushes
		if tl.FlushHugeRegion(r << mem.HugeShift); tl.Stats().Flushes-before != want {
			t.Fatalf("flushing region %d removed %d entries, want %d", r, tl.Stats().Flushes-before, want)
		}
	}
}

func TestFlushAll(t *testing.T) {
	tl := newSmall()
	tl.Insert(0x1000, mem.Base)
	tl.Insert(0, mem.Huge)
	tl.FlushAll()
	if tl.Lookup(0x1000, mem.Base) || tl.Lookup(0, mem.Huge) {
		t.Error("entries survived FlushAll")
	}
}

func TestAccessNativeCosts(t *testing.T) {
	tl := New(DefaultConfig())
	r := tl.AccessNative(0x1000, mem.Base)
	if !r.Miss {
		t.Fatal("first access hit")
	}
	if r.Refs != 4 { // cold PWC: full 4-level walk
		t.Fatalf("cold base walk refs = %d, want 4", r.Refs)
	}
	r2 := tl.AccessNative(0x1000, mem.Base)
	if r2.Miss || r2.Cycles != tl.cfg.HitCycles {
		t.Fatalf("second access = %+v", r2)
	}
	// Neighbouring page in the same 2 MiB region: PWC hit, 1 ref.
	r3 := tl.AccessNative(0x2000, mem.Base)
	if !r3.Miss || r3.Refs != 1 {
		t.Fatalf("warm-PWC walk = %+v", r3)
	}
	st := tl.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.NativeWalks != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAccessNativeHugeWalkShorter(t *testing.T) {
	tl := New(DefaultConfig())
	rb := tl.AccessNative(0, mem.Base)
	tl2 := New(DefaultConfig())
	rh := tl2.AccessNative(0, mem.Huge)
	if rh.Refs >= rb.Refs {
		t.Fatalf("huge walk (%d refs) not shorter than base (%d)", rh.Refs, rb.Refs)
	}
}

func TestAccessNestedCosts(t *testing.T) {
	tl := New(DefaultConfig())
	// Cold: base/base nested walk = 4*(4+1)+4 = 24 refs.
	r := tl.AccessNested(0x1000, mem.Base, mem.Base, mem.Base, 0x5000)
	if r.Refs != 24 {
		t.Fatalf("cold nested base/base refs = %d, want 24", r.Refs)
	}
	// Well-aligned huge: cold = 3*(3+1)+3 = 15 refs.
	tl2 := New(DefaultConfig())
	r2 := tl2.AccessNested(0, mem.Huge, mem.Huge, mem.Huge, 0)
	if r2.Refs != 15 {
		t.Fatalf("cold nested huge/huge refs = %d, want 15", r2.Refs)
	}
	// Misaligned (guest huge, host base): cold = 3*(4+1)+4 = 19.
	tl3 := New(DefaultConfig())
	r3 := tl3.AccessNested(0, mem.Base, mem.Huge, mem.Base, 0)
	if r3.Refs != 19 {
		t.Fatalf("cold nested huge/base refs = %d, want 19", r3.Refs)
	}
}

func TestNestedWarmPWC(t *testing.T) {
	tl := New(DefaultConfig())
	tl.AccessNested(0x1000, mem.Base, mem.Base, mem.Base, 0x1000)
	// Second miss in same 2 MiB region: guest and host PWC both warm:
	// 1*(1+1)+1 = 3 refs.
	r := tl.AccessNested(0x2000, mem.Base, mem.Base, mem.Base, 0x2000)
	if !r.Miss || r.Refs != 3 {
		t.Fatalf("warm nested walk = %+v", r)
	}
}

// TestAlignmentRuleReach is the package-level expression of Figure 2:
// with a fixed working set larger than base-page TLB reach but inside
// huge-page reach, well-aligned huge pages eliminate capacity misses
// while misaligned huge pages (base-grain entries) do not.
func TestAlignmentRuleReach(t *testing.T) {
	pages := uint64(4096) // 16 MiB working set; 1536-entry TLB can't hold 4K entries
	run := func(effKind mem.PageSizeKind) float64 {
		tl := New(DefaultConfig())
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200000; i++ {
			va := uint64(rng.Intn(int(pages))) * mem.PageSize
			gKind := mem.Huge
			hKind := mem.Huge
			if effKind == mem.Base {
				hKind = mem.Base // misaligned: host base
			}
			tl.AccessNested(va, effKind, gKind, hKind, va)
		}
		return tl.Stats().MissRate()
	}
	aligned := run(mem.Huge)
	misaligned := run(mem.Base)
	if aligned > 0.01 {
		t.Errorf("aligned miss rate = %v, want ~0", aligned)
	}
	if misaligned < 0.5 {
		t.Errorf("misaligned miss rate = %v, want high", misaligned)
	}
}

func TestMissRateEmpty(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Errorf("empty MissRate = %v", s.MissRate())
	}
}

func TestResetStats(t *testing.T) {
	tl := newSmall()
	tl.AccessNative(0, mem.Base)
	tl.ResetStats()
	if tl.Stats().Misses != 0 {
		t.Error("stats survived reset")
	}
	// Contents survive reset.
	if !tl.Lookup(0, mem.Base) {
		t.Error("contents lost on stat reset")
	}
}

// Property: a lookup immediately after insert always hits, regardless
// of address or kind; flushing that page always removes it.
func TestInsertLookupFlushProperty(t *testing.T) {
	tl := New(DefaultConfig())
	f := func(vaRaw uint64, huge bool) bool {
		va := vaRaw % (1 << 40)
		kind := mem.Base
		if huge {
			kind = mem.Huge
		}
		tl.Insert(va, kind)
		if !tl.Lookup(va, kind) {
			return false
		}
		tl.FlushPage(va)
		return !tl.Lookup(va, kind)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccessNestedHit(b *testing.B) {
	tl := New(DefaultConfig())
	tl.Insert(0, mem.Huge)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.AccessNested(uint64(i)%mem.HugeSize, mem.Huge, mem.Huge, mem.Huge, 0)
	}
}

func BenchmarkAccessNestedMissHeavy(b *testing.B) {
	tl := New(DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := uint64(rng.Intn(1<<20)) * mem.PageSize
		tl.AccessNested(va, mem.Base, mem.Base, mem.Base, va)
	}
}

// TestAccessNestedBatchMatchesReference pins the batch kernel's
// contract: AccessNestedBatch over any chunking of an access sequence
// leaves the TLB observably identical — same stats, same summed
// cycles, and the same per-access results afterwards — to feeding the
// same sequence through AccessNested one element at a time, and, at
// the end, to the stamp-rule reference fed the same sequence.
// Geometries cover the default 8-way layout, a 3-way layout (five
// padding ways per set), and non-power-of-two set and walk-cache sizes
// (the reciprocal-division path).
func TestAccessNestedBatchMatchesReference(t *testing.T) {
	geometries := []Config{
		DefaultConfig(), // 192 sets x 8 ways, 16-entry PWCs
		{Sets: 7, Ways: 3, MemRefCycles: 50, HitCycles: 1, PWCEntries: 5},
		{Sets: 64, Ways: 8, MemRefCycles: 10, HitCycles: 2, PWCEntries: 12},
	}
	for gi, cfg := range geometries {
		ref := New(cfg)
		bat := New(cfg)
		stamp := newStampTLB(cfg)
		rng := rand.New(rand.NewSource(int64(gi) + 11))
		kinds := []mem.PageSizeKind{mem.Base, mem.Huge}

		const rounds = 40
		for round := 0; round < rounds; round++ {
			n := 1 + rng.Intn(97)
			vas := make([]uint64, n)
			gpas := make([]uint64, n)
			sis := make([]uint32, n)
			metas := make([]uint8, n)
			var refTotal uint64
			for i := 0; i < n; i++ {
				// A small page pool forces hits, misses, and evictions.
				va := uint64(rng.Intn(1<<11)) << mem.PageShift
				gpa := uint64(rng.Intn(1<<11)) << mem.PageShift
				eff := kinds[rng.Intn(2)]
				gk := kinds[rng.Intn(2)]
				hk := kinds[rng.Intn(2)]
				vas[i], gpas[i] = va, gpa
				sis[i] = ref.SetIndexOf(va, eff)
				metas[i] = PackKinds(eff, gk, hk)
				refTotal += ref.AccessNested(va, eff, gk, hk, gpa).Cycles
				stamp.AccessNested(va, eff, gk, hk, gpa)
			}
			batTotal := bat.AccessNestedBatch(vas, gpas, sis, metas)
			if refTotal != batTotal {
				t.Fatalf("geometry %d round %d: cycles %d (batch) != %d (reference)",
					gi, round, batTotal, refTotal)
			}
			if ref.Stats() != bat.Stats() {
				t.Fatalf("geometry %d round %d: stats diverged\nbatch: %+v\nref:   %+v",
					gi, round, bat.Stats(), ref.Stats())
			}
		}
		// The internal entry state must match too: every subsequent
		// access (hit-vs-miss, victim choice) behaves identically.
		for i := 0; i < 2000; i++ {
			va := uint64(rng.Intn(1<<11)) << mem.PageShift
			eff := kinds[i%2]
			a := ref.AccessNested(va, eff, mem.Base, mem.Huge, va)
			b := bat.AccessNested(va, eff, mem.Base, mem.Huge, va)
			if a != b {
				t.Fatalf("geometry %d: post-batch access %d diverged: %+v vs %+v", gi, i, b, a)
			}
			stamp.AccessNested(va, eff, mem.Base, mem.Huge, va)
		}
		if d := diffStamp(bat, stamp); d != "" {
			t.Fatalf("geometry %d: batch TLB and stamp rule diverged: %s", gi, d)
		}
	}
}
