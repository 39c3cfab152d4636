package pagetable

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

// populatedTable maps a few base pages and one huge region, audits
// clean, and returns the table.
func populatedTable(t *testing.T) *Table {
	t.Helper()
	tb := New()
	for i := uint64(0); i < 10; i++ {
		if _, err := tb.Map4K(i*mem.PageSize, 100+i); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.Map2M(4*mem.HugeSize, 2*mem.PagesPerHuge); err != nil {
		t.Fatal(err)
	}
	if vs := tb.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	return tb
}

func TestAuditCatchesRmapDesync(t *testing.T) {
	tb := populatedTable(t)
	tb.reverseClear(103) // forward mapping keeps frame 103; rmap forgets it
	expectViolations(t, tb.CheckInvariants(), "rmap-inverse")
}

func TestAuditCatchesStaleRmapEntry(t *testing.T) {
	tb := populatedTable(t)
	tb.reverseSet(9999, 77*mem.PageSize) // no base mapping uses frame 9999
	expectViolations(t, tb.CheckInvariants(), "rmap-inverse")
}

func TestAuditCatchesCounterDrift(t *testing.T) {
	tb := populatedTable(t)
	tb.mapped4K++
	expectViolations(t, tb.CheckInvariants(), "counter-recount")
}

func TestAuditCatchesMisalignedHugeLeaf(t *testing.T) {
	tb := populatedTable(t)
	pmd := tb.pmdAt(4 * mem.HugeSize)
	if pmd == nil {
		t.Fatal("PMD for the huge mapping not found")
	}
	pmd.words[index(4*mem.HugeSize, hugeLevel)] = (2*mem.PagesPerHuge+1)<<frameShift | pteHuge
	expectViolations(t, tb.CheckInvariants(), "huge-alignment")
}

func TestAuditCatchesPartitionViolation(t *testing.T) {
	tb := populatedTable(t)
	// Graft a live leaf under the huge leaf: the region now has two
	// translations for the same addresses.
	pmd := tb.pmdAt(4 * mem.HugeSize)
	if pmd == nil {
		t.Fatal("PMD for the huge mapping not found")
	}
	pte := &Leaf{}
	pte[0] = 500<<frameShift | pteP
	idx := index(4*mem.HugeSize, hugeLevel)
	pmd.leaves[idx] = pte
	pmd.leafLive[idx] = 1
	pmd.live++
	expectViolations(t, tb.CheckInvariants(),
		"partition", "counter-recount", "rmap-inverse")
}

func TestAuditCatchesLiveCountDrift(t *testing.T) {
	tb := populatedTable(t)
	tb.root.live++
	expectViolations(t, tb.CheckInvariants(), "live-count")
}

func TestAuditCatchesLeafCountDrift(t *testing.T) {
	tb := populatedTable(t)
	// Region 0's leaf holds 10 base pages; its count in the PMD says 11,
	// so Map2M would refuse the region and MHPS would misread it.
	_, live := tb.freshLeaf(0)
	*live++
	expectViolations(t, tb.CheckInvariants(), "live-count")
}

// TestAuditCatchesBadPTEFlags plants each PTE word the model never
// writes. A stray A bit on a word that is not present is what a mark
// through a stale AccessRef leaves, and a reused leaf would carry it.
func TestAuditCatchesBadPTEFlags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(l *Leaf, pmd *pmd)
	}{
		{"accessed-not-present", func(l *Leaf, _ *pmd) { l[20] = pteA }},
		{"frame-not-present", func(l *Leaf, _ *pmd) { l[20] = 77 << frameShift }},
		{"ps-in-leaf", func(l *Leaf, _ *pmd) { l[3] |= ptePS }},
		{"reserved-in-leaf", func(l *Leaf, _ *pmd) { l[3] |= 1 << 1 }},
		{"pmd-without-ps", func(_ *Leaf, pmd *pmd) { pmd.words[9] = 8*mem.PagesPerHuge<<frameShift | pteP }},
		{"pmd-not-present", func(_ *Leaf, pmd *pmd) { pmd.words[9] = ptePS }},
		{"accessed-in-pmd", func(_ *Leaf, pmd *pmd) { pmd.words[4] |= pteA }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := populatedTable(t)
			l, _ := tb.freshLeaf(0)
			tc.plant(l, tb.pmdAt(0))
			expectViolations(t, tb.CheckInvariants(), "pte-flags")
		})
	}
}

func TestAuditCatchesDetachedLeafMemo(t *testing.T) {
	tb := populatedTable(t)
	// A leaf node no walk reaches, memoized for the mapped region 0:
	// lookups there would read its empty entries.
	tb.leaf, tb.leafKey = &Leaf{}, 0
	expectViolations(t, tb.CheckInvariants(), "leaf-memo")
}

func TestAuditCatchesWrongChunkMemo(t *testing.T) {
	tb := populatedTable(t)
	// A chunk the map does not hold, memoized for the chunk of frames
	// 100..109: reverse lookups there would miss.
	tb.revLast, tb.revKey = new(revChunk), 100>>revChunkBits
	expectViolations(t, tb.CheckInvariants(), "rmap-memo")
}

func TestAuditCatchesAttachedSpare(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(tb *Table)
	}{
		// Region 0's live leaf, which is also the leaf memo, stacked as
		// a spare: Split or the next leaf allocation would hand it to a
		// second region.
		{"live-leaf", func(tb *Table) {
			tb.leaf = nil
			l, _ := tb.freshLeaf(0)
			tb.pushLeaf(l)
		}},
		{"memo", func(tb *Table) {
			tb.leaf, tb.leafLive = tb.freshLeaf(0)
			tb.leafKey = 0
			tb.pushLeaf(tb.leaf)
		}},
		{"over-capacity", func(tb *Table) { tb.nSpare = spareLeaves + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tb := populatedTable(t)
			tc.plant(tb)
			expectViolations(t, tb.CheckInvariants(), "spare-detached")
		})
	}
}

func TestAuditCatchesRegionCountDrift(t *testing.T) {
	tb := populatedTable(t)
	// Frames 100..109 sit in output region 0; its count now says one
	// more base page than the reverse map holds.
	tb.reverse[0].n[0]++
	expectViolations(t, tb.CheckInvariants(), "rmap-region-count")
}
