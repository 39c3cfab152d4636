package core

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

func TestAuditCatchesReservationKilledBehindBooking(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	b := vm.Guest.Buddy
	if _, err := b.Reserve(4); err != nil {
		t.Fatal(err)
	}
	gp.bookings[4] = &booking{hugeIdx: 4}
	if vs := g.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	// Finish the reservation out from under the booking.
	if _, err := b.FinishReservation(4); err != nil {
		t.Fatal(err)
	}
	expectViolations(t, g.CheckInvariants(), "booking-reservation")
	delete(gp.bookings, 4)
}

func TestAuditCatchesClaimDesync(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	b := vm.Guest.Buddy
	if _, err := b.Reserve(4); err != nil {
		t.Fatal(err)
	}
	gp.bookings[4] = &booking{hugeIdx: 4}
	// Claim a page in the allocator without recording it in the
	// booking.
	if err := b.AllocReservedPage(4, 4*mem.PagesPerHuge+3); err != nil {
		t.Fatal(err)
	}
	expectViolations(t, g.CheckInvariants(), "booking-claim-desync")
}

func TestAuditCatchesClaimCountDrift(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	if _, err := vm.Guest.Buddy.Reserve(4); err != nil {
		t.Fatal(err)
	}
	bk := &booking{hugeIdx: 4}
	gp.bookings[4] = bk
	bk.nClaimed++
	expectViolations(t, g.CheckInvariants(), "booking-claim-count")
}

func TestAuditCatchesOrphanReservation(t *testing.T) {
	_, vm, g, _, _ := newGeminiVM(Config{})
	if _, err := vm.Guest.Buddy.Reserve(4); err != nil {
		t.Fatal(err)
	}
	expectViolations(t, g.CheckInvariants(), "reservation-orphan")
}

func TestAuditCatchesBucketBlockFreed(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	b := vm.Guest.Buddy
	f, err := b.Alloc(mem.HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	hi := f / mem.PagesPerHuge
	gp.bucket.Put(hi, 0, 1000)
	if vs := g.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	// Free the parked block's frames behind the bucket's back.
	b.Free(f, mem.HugeOrder)
	expectViolations(t, g.CheckInvariants(), "bucket-frame-free")
}

func TestAuditCatchesBookedBucketOverlap(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	f, err := vm.Guest.Buddy.Alloc(mem.HugeOrder)
	if err != nil {
		t.Fatal(err)
	}
	hi := f / mem.PagesPerHuge
	gp.bucket.Put(hi, 0, 1000)
	gp.bookings[hi] = &booking{hugeIdx: hi, owned: true}
	expectViolations(t, g.CheckInvariants(), "booking-bucket-overlap")
}

func TestAuditNilBeforeAttach(t *testing.T) {
	g, _, _ := New(Config{})
	if vs := g.CheckInvariants(); vs != nil {
		t.Fatalf("unattached coordinator reported: %s", audit.Report(vs))
	}
}

// TestReclaimOfReturnedPageCountsOnce is the claim double-count
// regression test. A booked page that went back to the buddy
// reservation (an unmap or a balloon inflation frees it there) keeps
// its claimed bit in the booking; claiming it again must not count it
// a second time.
func TestReclaimOfReturnedPageCountsOnce(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	L := vm.Guest
	if _, err := L.Buddy.Reserve(4); err != nil {
		t.Fatal(err)
	}
	bk := &booking{hugeIdx: 4}
	gp.bookings[4] = bk
	frame := uint64(4*mem.PagesPerHuge + 3)
	va := uint64(1<<30) + 3*mem.PageSize
	d := &offsetDesc{offset: int64(va) - int64(frame*mem.PageSize)}
	for round := 1; round <= 2; round++ {
		got, ok := gp.claim(L, d, va)
		if !ok || got != frame {
			t.Fatalf("round %d: claim = %#x, %v; want %#x", round, got, ok, frame)
		}
		if bk.nClaimed != 1 {
			t.Fatalf("round %d: nClaimed = %d, want 1", round, bk.nClaimed)
		}
		if vs := g.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("round %d: %s", round, audit.Report(vs))
		}
		// Return the page to the reservation; the booking's bit stays.
		L.Buddy.Free(frame, 0)
	}
}
