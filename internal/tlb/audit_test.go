package tlb

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

func expectViolations(t *testing.T, vs []audit.Violation, want ...string) {
	t.Helper()
	allowed := make(map[string]bool, len(want))
	for _, w := range want {
		allowed[w] = true
		if !audit.Has(vs, w) {
			t.Errorf("auditor missed injected %q violation; got:\n%s", w, audit.Report(vs))
		}
	}
	for _, v := range vs {
		if !allowed[v.Invariant] {
			t.Errorf("unexpected collateral violation: %v", v)
		}
	}
}

func populatedTLB(t *testing.T) *TLB {
	t.Helper()
	tl := New(DefaultConfig())
	for i := uint64(0); i < 100; i++ {
		tl.Insert(i*mem.PageSize, mem.Base)
	}
	tl.Insert(8*mem.HugeSize, mem.Huge)
	if vs := tl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	return tl
}

func TestVisitEntriesRoundTrip(t *testing.T) {
	tl := populatedTLB(t)
	got := make(map[uint64]mem.PageSizeKind)
	tl.VisitEntries(func(va uint64, kind mem.PageSizeKind) bool {
		got[va] = kind
		return true
	})
	if len(got) != 101 {
		t.Fatalf("visited %d entries, want 101", len(got))
	}
	for i := uint64(0); i < 100; i++ {
		if k, ok := got[i*mem.PageSize]; !ok || k != mem.Base {
			t.Fatalf("base entry %d: got %v %v", i, k, ok)
		}
	}
	if k, ok := got[8*mem.HugeSize]; !ok || k != mem.Huge {
		t.Fatalf("huge entry: got %v %v", k, ok)
	}
}

func TestAuditCatchesWrongSetEntry(t *testing.T) {
	tl := populatedTLB(t)
	// Teleport set 0's valid entry over set 1's, into a set its page
	// number does not select, keeping both sets' ranks consistent.
	src := &tl.set(0)[0]
	if *src == invalidTag {
		t.Fatal("expected a valid entry in set 0")
	}
	tl.set(1)[0] = *src
	*src = invalidTag
	tl.ages[0] = vacate(tl.ages[0], 0)
	expectViolations(t, tl.CheckInvariants(), "set-index")
}

// rankedTLB returns a single-set TLB holding three live ways ranked
// 2, 1, 0 (way 2 most recent) and five empty ones.
func rankedTLB(t *testing.T) *TLB {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sets = 1
	tl := New(cfg)
	for pn := uint64(0); pn < 3; pn++ {
		tl.Insert(pn*mem.PageSize, mem.Base)
	}
	if vs := tl.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	if tl.ages[0] != emptyAges&^0xffffff|0x000102 {
		t.Fatalf("baseline ranks %#x", tl.ages[0])
	}
	return tl
}

// setRank overwrites way j's rank in set si.
func setRank(tl *TLB, si, j int, rank uint64) {
	s := uint(j) * 8
	tl.ages[si] = tl.ages[si]&^(0xff<<s) | rank<<s
}

func TestAuditCatchesRankDrift(t *testing.T) {
	// Each drift makes the victim formula pick a way the stamp rule
	// would not: a duplicated rank hides the least recent way, a gap
	// leaves no way at rank Ways-1 once the set fills, and a live way
	// ranked like an empty one is evicted first despite being in use.
	for _, c := range []struct {
		name string
		way  int
		rank uint64
	}{
		{"duplicated rank", 0, 1},
		{"gap", 0, 3},
		{"live way ranked empty", 1, emptyRank},
		{"empty way ranked live", 5, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			tl := rankedTLB(t)
			setRank(tl, 0, c.way, c.rank)
			expectViolations(t, tl.CheckInvariants(), "lru-rank")
		})
	}
	t.Run("padding way holds a tag", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Sets, cfg.Ways = 1, 4
		tl := New(cfg)
		tl.Insert(0, mem.Base)
		tl.set(0)[6] = 1 << 1
		expectViolations(t, tl.CheckInvariants(), "lru-rank")
	})
}

func TestAuditCatchesDuplicateTag(t *testing.T) {
	tl := populatedTLB(t)
	set := tl.set(0)
	if set[0] == invalidTag || set[1] != invalidTag {
		t.Fatal("expected one valid entry in set 0, at way 0")
	}
	// Copy it into the empty way 1 and rank that way most recent, so
	// only the duplicate is wrong.
	set[1] = set[0]
	tl.ages[0] = touch(tl.ages[0], 1)
	expectViolations(t, tl.CheckInvariants(), "duplicate-tag")
}
