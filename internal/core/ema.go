package core

// This file implements EMA, Gemini's enhanced memory allocator (§5):
// per-VMA offset descriptors in a self-organizing list steer guest
// physical placement toward huge-boundary-congruent layouts, using the
// contiguity list for whole-remainder placement and sub-VMA
// re-anchoring when a placement becomes unavailable.

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// offsetDesc is one EMA offset descriptor (§5): for the guest virtual
// range [start, end) of a VMA, the guest physical placement target of
// address va is (va - offset) — aligned to huge boundaries when the
// anchor allowed it. Descriptors live in a self-organizing
// (move-to-front) list, the structure the paper chose to keep lookup
// cheap.
type offsetDesc struct {
	vma        *machine.VMA
	start, end uint64
	offset     int64 // gpa = gva - offset, in bytes
	aligned    bool  // huge-boundary congruent placement
}

func (d *offsetDesc) covers(v *machine.VMA, va uint64) bool {
	return d.vma == v && va >= d.start && va < d.end
}

// minAnchorRegion is the smallest free run worth tracking in the
// contiguity list: smaller runs can neither host a huge page nor give
// a meaningful sub-VMA anchor.
const minAnchorRegion = 64

// findDesc locates the descriptor covering (vmaID, va) with
// move-to-front self-organization.
func (p *GuestPolicy) findDesc(v *machine.VMA, va uint64) *offsetDesc {
	for i, d := range p.descs {
		if d.covers(v, va) {
			if i > 0 {
				copy(p.descs[1:i+1], p.descs[:i])
				p.descs[0] = d
			}
			return d
		}
	}
	return nil
}

// claim tries to allocate the descriptor's target frame for va,
// through the booking machinery when the target lies in a booked
// region.
func (p *GuestPolicy) claim(L *machine.Layer, d *offsetDesc, va uint64) (uint64, bool) {
	gpa := int64(va&^uint64(mem.PageSize-1)) - d.offset
	if gpa < 0 {
		return 0, false
	}
	frame := uint64(gpa) >> mem.PageShift
	if frame >= L.Buddy.TotalPages() {
		return 0, false
	}
	hi := frame / mem.PagesPerHuge
	if bk, ok := p.bookings[hi]; ok {
		idx := frame % mem.PagesPerHuge
		if bk.owned {
			if bk.claimed[idx] {
				return 0, false
			}
		} else if L.Buddy.AllocReservedPage(hi, frame) != nil {
			return 0, false
		}
		// A page the allocator returned to the reservation keeps its
		// claimed bit, so a re-claim of it is already counted.
		if !bk.claimed[idx] {
			bk.claimed[idx] = true
			bk.nClaimed++
		}
		if !bk.anchored && d.aligned {
			bk.anchored = true
			bk.vaBase = va &^ uint64(mem.HugeSize-1)
		}
		return frame, true
	}
	if L.Buddy.AllocAt(frame, 0) == nil {
		return frame, true
	}
	return 0, false
}

// anchor creates an offset descriptor for the untouched remainder of
// the VMA starting at va, choosing guest physical space in the
// paper's preference order: the huge bucket, booked mis-aligned host
// huge regions, then the Gemini contiguity list (next-fit over whole
// remainder, largest-region sub-VMA fallback).
func (p *GuestPolicy) anchor(L *machine.Layer, v *machine.VMA, va uint64) *offsetDesc {
	if p.contig.Len() == 0 && (!p.contigBuiltSet || p.contigBuiltAt != p.now) {
		// At most one on-demand rebuild per tick: when fragmentation
		// leaves no useful regions, rebuilding on every fault would
		// dominate the run.
		p.runs = L.Buddy.FreeRegionsAtLeast(minAnchorRegion, p.runs)
		p.contig.Rebuild(p.runs)
		p.contigBuiltAt, p.contigBuiltSet = p.now, true
	}
	vaPage := va &^ uint64(mem.PageSize-1)
	vaHugeBase := va &^ uint64(mem.HugeSize-1)
	alignedRegion := machine.RegionInVMA(vaHugeBase, v)

	if alignedRegion {
		// 1. Huge bucket: freed well-aligned regions, reused whole.
		if !p.g.cfg.DisableBucket {
			if hi, ok := p.bucket.Take(p.stillHostHuge); ok {
				bk := &booking{
					hugeIdx:  hi,
					owned:    true,
					expires:  p.now + p.ctl.Timeout(),
					vaBase:   vaHugeBase,
					anchored: true,
				}
				p.bookings[hi] = bk
				p.Stats.BucketAnchors++
				return p.pushDesc(v, vaHugeBase, vaHugeBase+mem.HugeSize,
					int64(vaHugeBase)-int64(hi*mem.HugeSize), true)
			}
		}
		// 2. Booked mis-aligned host huge regions: filling one turns
		// the host huge page well-aligned.
		if !p.g.cfg.DisableBooking {
			if hi, ok := p.takeUnanchoredBooking(); ok {
				bk := p.bookings[hi]
				bk.anchored = true
				bk.vaBase = vaHugeBase
				return p.pushDesc(v, vaHugeBase, vaHugeBase+mem.HugeSize,
					int64(vaHugeBase)-int64(hi*mem.HugeSize), true)
			}
		}
	}

	if !alignedRegion {
		// The VMA's unaligned head or tail: place only this partial
		// window page-granularly, so the VMA's aligned interior
		// regions keep the chance to anchor on aligned space.
		end := vaHugeBase + mem.HugeSize
		if end > v.End() {
			end = v.End()
		}
		pages := (end - vaPage) / mem.PageSize
		if r, ok := p.contig.TakeLargest(pages); ok {
			return p.pushDesc(v, vaPage, vaPage+r.Pages*mem.PageSize,
				int64(vaPage)-int64(r.Start*mem.PageSize), false)
		}
		return nil
	}

	// 3. Gemini contiguity list: next-fit for the whole remainder,
	// huge-aligned so later in-place collapse works.
	start := vaHugeBase
	remPages := (v.End() - start) / mem.PageSize
	want := remPages
	if want > mem.PagesPerHuge*64 {
		want = mem.PagesPerHuge * 64 // cap the span one anchor claims
	}
	want = (want + mem.PagesPerHuge - 1) &^ uint64(mem.PagesPerHuge-1)
	if f, ok := p.contig.FindNextFitAligned(want, mem.PagesPerHuge); ok {
		d := p.pushDesc(v, start, start+want*mem.PageSize,
			int64(start)-int64(f*mem.PageSize), true)
		p.bookSpan(L, f, want)
		return d
	}
	// No run fits the whole remainder (fragmentation): degrade to one
	// aligned region — the sub-VMA mechanism at its finest grain,
	// still able to form a huge page.
	if f, ok := p.contig.FindNextFitAligned(mem.PagesPerHuge, mem.PagesPerHuge); ok {
		d := p.pushDesc(v, start, start+mem.HugeSize,
			int64(start)-int64(f*mem.PageSize), true)
		p.bookSpan(L, f, mem.PagesPerHuge)
		return d
	}
	// Sub-VMA fallback: largest free region, one region's span at
	// most, page-granular.
	take := remPages
	if take > mem.PagesPerHuge {
		take = mem.PagesPerHuge
	}
	if r, ok := p.contig.TakeLargest(take); ok {
		return p.pushDesc(v, start, start+r.Pages*mem.PageSize,
			int64(start)-int64(r.Start*mem.PageSize), r.Start%mem.PagesPerHuge == 0)
	}
	return nil
}

// pushDesc records a new descriptor at the front of the list.
func (p *GuestPolicy) pushDesc(v *machine.VMA, start, end uint64, offset int64, aligned bool) *offsetDesc {
	if end > v.End() {
		end = v.End()
	}
	d := &offsetDesc{vma: v, start: start, end: end, offset: offset, aligned: aligned}
	p.descs = append([]*offsetDesc{d}, p.descs...)
	p.Stats.Anchors++
	return d
}
