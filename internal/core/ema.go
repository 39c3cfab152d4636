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

// claimRun claims the descriptor's target frames for the n ascending
// pages from va, through the booking machinery when the targets lie in
// a booked region, and returns how many it claimed before the first
// claim that fails, and the first target frame. The targets are
// consecutive, and the run stops at the descriptor's end and at the end
// of the first target's 2 MiB region, so one booking lookup serves it.
// A fault claims its one page with n = 1, so a run claims exactly what
// its faults would, page by page.
func (p *GuestPolicy) claimRun(L *machine.Layer, d *offsetDesc, va uint64, n int) (int, uint64) {
	vaPage := va &^ uint64(mem.PageSize-1)
	gpa := int64(vaPage) - d.offset
	if gpa < 0 || uint64(gpa)>>mem.PageShift >= L.Buddy.TotalPages() {
		return 0, 0
	}
	frame := uint64(gpa) >> mem.PageShift
	n = min(n, int(mem.PagesPerHuge-frame%mem.PagesPerHuge), int(L.Buddy.TotalPages()-frame))
	// A descriptor re-anchored by the sub-VMA fallback may end before
	// va; the fault still claims its one target.
	if vaPage < d.end {
		n = min(n, int((d.end-vaPage+mem.PageSize-1)/mem.PageSize))
	}
	hi := frame / mem.PagesPerHuge
	bk, ok := p.bookings[hi]
	if !ok {
		return L.Buddy.AllocRunAt(frame, n), frame
	}
	idx := int(frame % mem.PagesPerHuge)
	k := 0
	if bk.owned {
		for k < n && !bk.claimed[idx+k] {
			k++
		}
	} else {
		k = L.Buddy.AllocReservedRun(hi, frame, n)
	}
	// A page the allocator returned to the reservation keeps its
	// claimed bit, so a re-claim of it is already counted.
	for i := idx; i < idx+k; i++ {
		if !bk.claimed[i] {
			bk.claimed[i] = true
			bk.nClaimed++
		}
	}
	if k > 0 && !bk.anchored && d.aligned {
		p.anchorBooking(bk, va&^uint64(mem.HugeSize-1))
	}
	return k, frame
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
				p.addBooking(&booking{
					hugeIdx:  hi,
					owned:    true,
					expires:  p.now + p.ctl.Timeout(),
					vaBase:   vaHugeBase,
					anchored: true,
				})
				p.Stats.BucketAnchors++
				return p.pushDesc(v, vaHugeBase, vaHugeBase+mem.HugeSize,
					int64(vaHugeBase)-int64(hi*mem.HugeSize), true)
			}
		}
		// 2. Booked mis-aligned host huge regions: filling one turns
		// the host huge page well-aligned.
		if !p.g.cfg.DisableBooking {
			if hi, ok := p.takeUnanchoredBooking(); ok {
				p.anchorBooking(p.bookings[hi], vaHugeBase)
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
