package core

import (
	"reflect"
	"testing"
	"unsafe"

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
	gp.addBooking(&booking{hugeIdx: 4})
	if vs := g.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	// Finish the reservation out from under the booking.
	if _, err := b.FinishReservation(4); err != nil {
		t.Fatal(err)
	}
	expectViolations(t, g.CheckInvariants(), "booking-reservation")
	gp.dropBooking(gp.bookings[4])
}

func TestAuditCatchesClaimDesync(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{})
	b := vm.Guest.Buddy
	if _, err := b.Reserve(4); err != nil {
		t.Fatal(err)
	}
	gp.addBooking(&booking{hugeIdx: 4})
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
	gp.addBooking(bk)
	bk.nClaimed++
	expectViolations(t, g.CheckInvariants(), "booking-claim-count")
}

// TestAuditCatchesUnanchoredCountDrift breaks the unanchored-booking
// count each way it can drift from the map: a booking anchored or filed
// behind the count's back, and a count bumped with no booking.
func TestAuditCatchesUnanchoredCountDrift(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(gp *GuestPolicy, bk *booking)
		want   []string
	}{
		{"anchored behind the count", func(_ *GuestPolicy, bk *booking) { bk.anchored = true },
			[]string{"unanchored-count"}},
		{"count bumped", func(gp *GuestPolicy, _ *booking) { gp.unanchored++ },
			[]string{"unanchored-count"}},
		{"filed behind the count", func(gp *GuestPolicy, _ *booking) { gp.bookings[9] = &booking{hugeIdx: 9} },
			[]string{"unanchored-count", "booking-reservation"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, vm, g, gp, _ := newGeminiVM(Config{})
			if _, err := vm.Guest.Buddy.Reserve(4); err != nil {
				t.Fatal(err)
			}
			bk := &booking{hugeIdx: 4}
			gp.addBooking(bk)
			if vs := g.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("baseline not clean: %s", audit.Report(vs))
			}
			tc.mutate(gp, bk)
			expectViolations(t, g.CheckInvariants(), tc.want...)
		})
	}
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
	gp.addBooking(&booking{hugeIdx: hi, owned: true})
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
	gp.addBooking(bk)
	frame := uint64(4*mem.PagesPerHuge + 3)
	va := uint64(1<<30) + 3*mem.PageSize
	d := &offsetDesc{offset: int64(va) - int64(frame*mem.PageSize)}
	for round := 1; round <= 2; round++ {
		k, got := gp.claimRun(L, d, va, 1)
		if k != 1 || got != frame {
			t.Fatalf("round %d: claimRun = %d, %#x; want 1, %#x", round, k, got, frame)
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

// TestAuditCatchesContigDrift breaks the guest and the host contiguity
// list behind the list's own API — a back link that skips a node, a
// count that disagrees with the nodes — and expects rule contig-list.
func TestAuditCatchesContigDrift(t *testing.T) {
	for _, side := range []string{"guest", "host"} {
		for _, tc := range []struct {
			name   string
			mutate func(l reflect.Value)
		}{
			{"broken link", func(l reflect.Value) {
				second := l.FieldByName("head").Elem().FieldByName("next").Elem()
				settable(second.FieldByName("prev")).SetZero()
			}},
			{"wrong count", func(l reflect.Value) {
				n := settable(l.FieldByName("count"))
				n.SetInt(n.Int() + 1)
			}},
		} {
			t.Run(side+"/"+tc.name, func(t *testing.T) {
				_, _, g, gp, hp := newGeminiVM(Config{})
				l := gp.contig
				if side == "host" {
					l = hp.contig
				}
				l.Rebuild([]mem.Region{{Start: 0, Pages: 512}, {Start: 2048, Pages: 1024}, {Start: 8192, Pages: 64}})
				if vs := g.CheckInvariants(); len(vs) != 0 {
					t.Fatalf("baseline not clean: %s", audit.Report(vs))
				}
				tc.mutate(reflect.ValueOf(l).Elem())
				expectViolations(t, g.CheckInvariants(), "contig-list")
			})
		}
	}
}

// settable gives write access to an unexported field of another
// package, so a test can corrupt state its API never produces.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}
