package core

// This file implements HB, Gemini's huge booking (§4): type-1
// mis-aligned host huge regions are temporarily reserved so they can
// still become well-aligned cheaply, with adaptive timeouts
// (Algorithm 1, see timeout.go) and huge preallocation (§4.2) when a
// booked region is mostly claimed and fragmentation is low.

import (
	"sort"

	"repro/internal/buddy"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// booking tracks one huge-page-sized guest physical region held for
// alignment: either a buddy reservation (HB proper) or an owned block
// recycled from the huge bucket.
type booking struct {
	hugeIdx    uint64
	owned      bool // frames pre-owned (bucket origin)
	claimed    [mem.PagesPerHuge]bool
	nClaimed   int
	expires    uint64
	vaBase     uint64 // guest virtual huge region filling the booking
	anchored   bool
	prealloced bool
}

// unanchored reports whether the booking waits for a VMA to anchor
// on it: a reservation that no descriptor targets yet. Owned
// (bucket-origin) bookings are anchored from birth.
func (bk *booking) unanchored() bool { return !bk.anchored && !bk.owned }

// addBooking files a new booking. Every booking enters the map here, so
// p.unanchored counts the unanchored ones.
func (p *GuestPolicy) addBooking(bk *booking) {
	p.bookings[bk.hugeIdx] = bk
	if bk.unanchored() {
		p.unanchored++
	}
}

// anchorBooking anchors the booking to the guest virtual huge region at
// vaBase. It is the only place a booking becomes anchored.
func (p *GuestPolicy) anchorBooking(bk *booking, vaBase uint64) {
	if bk.unanchored() {
		p.unanchored--
	}
	bk.anchored = true
	bk.vaBase = vaBase
}

// dropBooking takes the booking out of the map and the count.
func (p *GuestPolicy) dropBooking(bk *booking) {
	delete(p.bookings, bk.hugeIdx)
	if bk.unanchored() {
		p.unanchored--
	}
}

// takeUnanchoredBooking returns the lowest unanchored booked region.
// The map has no order, so finding one ranges over every booking. The
// count p.unanchored answers the common case, none at all, without
// that scan: on fragmented memory most faults search for an anchor,
// and no search in the fragmented benchmark cells ever met an
// unanchored booking (DESIGN.md §7.2).
func (p *GuestPolicy) takeUnanchoredBooking() (uint64, bool) {
	if p.unanchored == 0 {
		return 0, false
	}
	var best uint64
	found := false
	for hi, bk := range p.bookings {
		if !bk.unanchored() {
			continue
		}
		if !found || hi < best {
			best = hi
			found = true
		}
	}
	return best, found
}

// bookSpan reserves the huge regions of a freshly anchored span
// (booking "to fit the entire VMA", §5), within budget limits.
func (p *GuestPolicy) bookSpan(L *machine.Layer, startFrame, pages uint64) {
	if p.g.cfg.DisableBooking {
		return
	}
	for f := startFrame; f+mem.PagesPerHuge <= startFrame+pages; f += mem.PagesPerHuge {
		if len(p.bookings) >= p.g.cfg.MaxBookings {
			return
		}
		hi := f / mem.PagesPerHuge
		if _, ok := p.bookings[hi]; ok {
			continue
		}
		if _, err := L.Buddy.Reserve(hi); err != nil {
			continue
		}
		p.addBooking(&booking{hugeIdx: hi, expires: p.now + p.ctl.Timeout()})
		p.Stats.BookingsCreated++
		if L.Trace != nil {
			L.Trace.Event(trace.EvBookingOpen, 0, hi*mem.PagesPerHuge, mem.HugeOrder, 0, "span")
		}
	}
}

// serviceBookings completes, preallocates, or expires bookings.
func (p *GuestPolicy) serviceBookings(L *machine.Layer) {
	if len(p.bookings) == 0 {
		return
	}
	keys := make([]uint64, 0, len(p.bookings))
	for hi := range p.bookings {
		keys = append(keys, hi)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, hi := range keys {
		bk := p.bookings[hi]
		if bk.nClaimed == mem.PagesPerHuge {
			p.finishBooking(L, bk, true)
			continue
		}
		// Huge preallocation (§4.2): at least PreallocThreshold pages
		// claimed and low fragmentation.
		if bk.anchored && !bk.prealloced &&
			bk.nClaimed >= p.g.cfg.PreallocThreshold &&
			L.Buddy.FMFI(mem.HugeOrder) <= p.g.cfg.PreallocMaxFMFI {
			p.prealloc(L, bk)
			if bk.nClaimed == mem.PagesPerHuge {
				p.finishBooking(L, bk, true)
				continue
			}
		}
		if p.now >= bk.expires {
			if L.Trace != nil {
				L.Trace.Event(trace.EvBookingExpire, bk.vaBase, bk.hugeIdx*mem.PagesPerHuge,
					mem.HugeOrder, uint64(bk.nClaimed), "timeout")
			}
			p.finishBooking(L, bk, false)
			p.Stats.BookingsExpired++
		}
	}
}

// finishBooking dissolves a booking. When complete is true the region
// is fully claimed and the anchored guest virtual region is collapsed
// in place, forming a well-aligned huge page when the region was a
// (mis-aligned) host huge page.
func (p *GuestPolicy) finishBooking(L *machine.Layer, bk *booking, complete bool) {
	p.dropBooking(bk)
	if bk.owned {
		// Return unclaimed frames of the bucket-origin block.
		var unclaimed buddy.Mask
		for i, c := range bk.claimed {
			if !c {
				unclaimed[i/64] |= 1 << (i % 64)
			}
		}
		L.Buddy.FreeMask(bk.hugeIdx, &unclaimed)
	} else {
		if _, err := L.Buddy.FinishReservation(bk.hugeIdx); err != nil {
			panic("core: booking lost its reservation: " + err.Error())
		}
	}
	if complete && bk.anchored {
		if L.PromoteInPlace(bk.vaBase) == nil {
			p.Stats.BookingsCompleted++
		}
	}
}

// prealloc maps the booking's unclaimed pages ahead of demand so the
// region can be promoted early (§4.2, "huge preallocation").
func (p *GuestPolicy) prealloc(L *machine.Layer, bk *booking) {
	bk.prealloced = true
	start := bk.hugeIdx * mem.PagesPerHuge
	for i := 0; i < mem.PagesPerHuge; i++ {
		if bk.claimed[i] {
			continue
		}
		va := bk.vaBase + uint64(i)*mem.PageSize
		if _, _, mapped := L.Table.Lookup(va); mapped {
			// The VA is taken by another descriptor's placement; the
			// region cannot complete.
			return
		}
		frame := start + uint64(i)
		if !bk.owned {
			if L.Buddy.AllocReservedPage(bk.hugeIdx, frame) != nil {
				return
			}
		}
		if _, err := L.Table.Map4K(va, frame); err != nil {
			panic("core: prealloc Map4K: " + err.Error())
		}
		bk.claimed[i] = true
		bk.nClaimed++
		L.Stats.BackgroundCycles += L.Costs.FaultBase
	}
	p.Stats.Preallocs++
}

// bookMisalignedHost books type-1 mis-aligned host huge regions so
// they stay free until the guest can form a matching huge page.
func (p *GuestPolicy) bookMisalignedHost(L *machine.Layer) {
	if p.g.cfg.DisableBooking || p.g.vm == nil {
		return
	}
	type1, _ := p.g.MisalignedHostRegions()
	budget := p.g.cfg.BookBudget
	for _, hi := range type1 {
		if budget == 0 || len(p.bookings) >= p.g.cfg.MaxBookings {
			return
		}
		if _, booked := p.bookings[hi]; booked || p.bucket.Contains(hi) {
			continue
		}
		if _, err := L.Buddy.Reserve(hi); err != nil {
			continue
		}
		p.addBooking(&booking{hugeIdx: hi, expires: p.now + p.ctl.Timeout()})
		p.Stats.BookingsCreated++
		if L.Trace != nil {
			L.Trace.Event(trace.EvBookingOpen, 0, hi*mem.PagesPerHuge, mem.HugeOrder, 0, "type1")
		}
		budget--
	}
}
