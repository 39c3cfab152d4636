package core

import (
	"repro/internal/audit"
	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// auditLayer labels coordinator violations in audit reports.
const auditLayer = "gemini"

// CheckInvariants cross-checks Gemini's bookkeeping against the guest
// layer it manages:
//
//   - every booking's claim bitmap agrees with its claim counter, and
//     a non-owned booking is backed by a live buddy reservation whose
//     claimed pages are a subset of the booking's (the allocator may
//     return a claimed page to the reservation on unmap, so the
//     booking's view can only lag ahead, never behind);
//   - an owned (bucket-origin) booking's region is not reserved, and
//     its unclaimed frames stay withdrawn from the free lists;
//   - every buddy reservation belongs to exactly one live non-owned
//     booking — no orphaned reservations;
//   - the count of unanchored bookings that lets anchor skip its
//     booking search matches the map;
//   - the huge bucket parks only in-bounds, whole 2 MiB blocks whose
//     frames are neither free, nor reserved, nor mapped by the guest,
//     and never a region that is simultaneously booked;
//   - the bucket's membership mirror matches its entry list;
//   - the guest and host contiguity lists are sorted, non-overlapping
//     and consistently linked, and hold as many regions as they count.
//
// Returns nil before Attach: there is no layer to audit yet.
func (g *Gemini) CheckInvariants() []audit.Violation {
	if g.vm == nil {
		return nil
	}
	var vs []audit.Violation
	p := g.guest
	b := p.g.vm.Guest.Buddy

	unanchored := 0
	for hi, bk := range p.bookings {
		if bk.unanchored() {
			unanchored++
		}
		if bk.hugeIdx != hi {
			vs = append(vs, audit.Violationf(auditLayer, "booking-key", hi,
				"booking filed under region %d records region %d", hi, bk.hugeIdx))
		}
		n := 0
		for i := 0; i < mem.PagesPerHuge; i++ {
			if bk.claimed[i] {
				n++
			}
		}
		if n != bk.nClaimed {
			vs = append(vs, audit.Violationf(auditLayer, "booking-claim-count", hi,
				"claim bitmap holds %d pages but nClaimed says %d", n, bk.nClaimed))
		}
		if p.bucket.Contains(hi) {
			vs = append(vs, audit.Violationf(auditLayer, "booking-bucket-overlap", hi,
				"region is both booked and parked in the bucket"))
		}
		r, reserved := b.ReservationAt(hi)
		if bk.owned {
			if reserved {
				vs = append(vs, audit.Violationf(auditLayer, "booking-owned-reserved", hi,
					"bucket-origin booking overlaps a buddy reservation"))
			}
			start := hi * mem.PagesPerHuge
			for i := 0; i < mem.PagesPerHuge; i++ {
				if !bk.claimed[i] && b.FrameFree(start+uint64(i)) {
					vs = append(vs, audit.Violationf(auditLayer, "booking-owned-frame-free",
						start+uint64(i), "unclaimed frame of an owned booking sits on the free lists"))
					break
				}
			}
		} else {
			if !reserved {
				vs = append(vs, audit.Violationf(auditLayer, "booking-reservation", hi,
					"booking has neither owned frames nor a buddy reservation"))
			} else {
				for i := 0; i < mem.PagesPerHuge; i++ {
					if r.Claimed(i) && !bk.claimed[i] {
						vs = append(vs, audit.Violationf(auditLayer, "booking-claim-desync",
							hi*mem.PagesPerHuge+uint64(i),
							"page claimed in the reservation but not in the booking"))
					}
				}
			}
		}
	}

	if unanchored != p.unanchored {
		vs = append(vs, audit.Violationf(auditLayer, "unanchored-count", 0,
			"%d bookings are unanchored but the count says %d", unanchored, p.unanchored))
	}

	// Reservations with no booking would hold guest memory forever.
	b.ForEachReservation(func(r *buddy.Reservation) {
		bk, ok := p.bookings[r.HugeIndex]
		if !ok || bk.owned {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-orphan", r.HugeIndex,
				"buddy reservation has no live non-owned booking"))
		}
	})

	// Guest huge mappings by frame block, for the bucket mapping check.
	guestHuge := make(map[uint64]bool)
	g.vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		guestHuge[m.Frame/mem.PagesPerHuge] = true
		return true
	})
	seen := 0
	p.bucket.ForEach(func(hi uint64) {
		seen++
		if !p.bucket.Contains(hi) {
			vs = append(vs, audit.Violationf(auditLayer, "bucket-index-desync", hi,
				"parked block missing from the membership mirror"))
		}
		start := hi * mem.PagesPerHuge
		if start+mem.PagesPerHuge > b.TotalPages() {
			vs = append(vs, audit.Violationf(auditLayer, "bucket-bounds", hi,
				"parked block extends past the end of guest memory"))
			return
		}
		if _, ok := b.ReservationAt(hi); ok {
			vs = append(vs, audit.Violationf(auditLayer, "bucket-frame-reserved", hi,
				"parked block overlaps a buddy reservation"))
		}
		if guestHuge[hi] {
			vs = append(vs, audit.Violationf(auditLayer, "bucket-frame-mapped", hi,
				"parked block is huge-mapped by the guest"))
		}
		for f := start; f < start+mem.PagesPerHuge; f++ {
			if b.FrameFree(f) {
				vs = append(vs, audit.Violationf(auditLayer, "bucket-frame-free", f,
					"frame of a parked block sits on the free lists"))
				break
			}
			if _, ok := g.vm.Guest.Table.ReverseLookup(f); ok {
				vs = append(vs, audit.Violationf(auditLayer, "bucket-frame-mapped", f,
					"frame of a parked block is base-mapped by the guest"))
				break
			}
		}
	})
	if seen != p.bucket.Len() {
		vs = append(vs, audit.Violationf(auditLayer, "bucket-index-desync", 0,
			"bucket reports %d blocks but enumerates %d", p.bucket.Len(), seen))
	}
	if err := p.contig.CheckInvariants(); err != nil {
		vs = append(vs, audit.Violationf(auditLayer, "contig-list", 0, "guest contiguity list: %v", err))
	}
	if err := g.host.contig.CheckInvariants(); err != nil {
		vs = append(vs, audit.Violationf(auditLayer, "contig-list", 0, "host contiguity list: %v", err))
	}
	return vs
}
