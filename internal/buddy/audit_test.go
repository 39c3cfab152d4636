package buddy

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// expectViolations asserts that every wanted invariant is reported and
// that nothing outside the wanted set is.
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

// mutatedAllocator returns an allocator with a mixed live state that
// audits clean before mutation.
func mutatedAllocator(t *testing.T) *Allocator {
	t.Helper()
	a := New(16 * 1024)
	for i := 0; i < 40; i++ {
		if _, err := a.Alloc(i % 4); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Reserve(20); err != nil {
		t.Fatal(err)
	}
	if vs := a.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	return a
}

// freeSingleton allocates a buddy pair and frees one side, leaving a
// guaranteed unmergeable order-0 free block.
func freeSingleton(t *testing.T, a *Allocator) (even, odd uint64) {
	t.Helper()
	f1, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(f1, 0) // keep f1+1 allocated: f1 stays a lone order-0 block
	return f1, f1 + 1
}

func TestAuditCatchesLeakedFrame(t *testing.T) {
	a := mutatedAllocator(t)
	f, _ := freeSingleton(t, a)
	// Drop the free block from the free books without adjusting the
	// counters: a frame leak.
	a.freeOrd[f] = -1
	expectViolations(t, a.CheckInvariants(),
		"conservation", "free-count", "fmfi-recompute", "bitmap-agreement")
}

func TestAuditCatchesBitmapDrift(t *testing.T) {
	a := mutatedAllocator(t)
	f, _ := freeSingleton(t, a)
	// Clear the block's bit behind the books' back: freeOrd still files
	// it, but Alloc can no longer find it.
	a.free[0].leaf[f/64] ^= 1 << (f % 64)
	expectViolations(t, a.CheckInvariants(), "bitmap-agreement")
}

func TestAuditCatchesFreePageCounterDrift(t *testing.T) {
	a := mutatedAllocator(t)
	a.freePages--
	expectViolations(t, a.CheckInvariants(), "conservation", "fmfi-recompute")
}

func TestAuditCatchesDoubleReserve(t *testing.T) {
	a := mutatedAllocator(t)
	// Fabricate a reservation over a region whose frames still sit on
	// the free lists: the frames are now owned twice.
	var hi uint64
	found := false
	for start := range a.freeOrd {
		if int(a.freeOrd[start]) >= mem.HugeOrder {
			hi = uint64(start) / mem.PagesPerHuge
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no free huge block to double-reserve")
	}
	a.reservations[hi] = &Reservation{HugeIndex: hi}
	expectViolations(t, a.CheckInvariants(), "reservation-free-overlap")
}

func TestAuditCatchesReservationClaimDrift(t *testing.T) {
	a := mutatedAllocator(t)
	r, ok := a.ReservationAt(20)
	if !ok {
		t.Fatal("setup reservation missing")
	}
	r.nAllocated++
	expectViolations(t, a.CheckInvariants(), "reservation-claims")
}

func TestAuditCatchesMisfiledFreeBlock(t *testing.T) {
	a := mutatedAllocator(t)
	even, odd := freeSingleton(t, a)
	// Move the free block to the odd start and re-file it as order 1:
	// a start not aligned for its order.
	a.freeOrd[even] = -1
	a.freeOrd[odd] = 1
	a.counts[0]--
	a.counts[1]++
	a.freePages++ // the order-1 claim covers one extra page
	vs := a.CheckInvariants()
	if !audit.Has(vs, "block-alignment") {
		t.Errorf("auditor missed block-alignment; got:\n%s", audit.Report(vs))
	}
}
