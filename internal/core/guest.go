package core

// This file is the guest-policy façade: the GuestPolicy type, its
// fault entry point, and the per-tick schedule that sequences Gemini's
// guest-side components. The components themselves live in sibling
// files along the paper's boundaries: EMA placement in ema.go, huge
// booking and preallocation in booking.go, the promoter passes in
// promoter.go, and the huge bucket in bucket.go.

import (
	"repro/internal/contig"
	"repro/internal/machine"
	"repro/internal/mem"
)

// GuestStats counts Gemini guest-side events.
type GuestStats struct {
	Anchors           uint64 // offset descriptors created
	SubVMAs           uint64 // re-anchors after a placement conflict
	BookingsCreated   uint64
	BookingsExpired   uint64
	BookingsCompleted uint64 // fully claimed and collapsed in place
	Preallocs         uint64 // huge preallocations performed
	Type2Fixes        uint64 // mis-aligned host huge pages consolidated
	BucketAnchors     uint64 // anchors served from the huge bucket
	PlainFaults       uint64 // faults served without EMA placement
}

// GuestPolicy is Gemini's guest-layer policy: EMA placement, huge
// booking, the huge bucket, and the type-2 promoter. It implements
// machine.Policy and machine.FreeObserver.
type GuestPolicy struct {
	g *Gemini

	descs    []*offsetDesc
	bookings map[uint64]*booking
	bucket   *Bucket
	contig   *contig.List
	runs     []mem.Region // reused FreeRegionsAtLeast buffer
	ctl      *TimeoutCtl

	now            uint64
	lastMisses     uint64
	contigBuiltAt  uint64 // last tick the contiguity list was rebuilt
	contigBuiltSet bool
	khCursor       int // round-robin cursor for the khugepaged pass

	// Stats counts guest-side events.
	Stats GuestStats
}

func newGuestPolicy(g *Gemini) *GuestPolicy {
	return &GuestPolicy{
		g:        g,
		bookings: make(map[uint64]*booking),
		bucket:   NewBucket(),
		contig:   contig.New(),
		ctl: NewTimeoutCtl(g.cfg.InitialTimeout, g.cfg.AdjustPeriod,
			g.cfg.DisableAdaptiveTimeout),
	}
}

// Name implements machine.Policy.
func (p *GuestPolicy) Name() string { return "gemini-guest" }

// KeepHuge implements machine.DemotionFilter: a guest huge page backed
// by a host huge page survives memory pressure; mis-aligned ones are
// demoted first (§8).
func (p *GuestPolicy) KeepHuge(L *machine.Layer, vaBase uint64) bool {
	gfn, kind, ok := L.Table.Lookup(vaBase)
	if !ok || kind != mem.Huge {
		return false
	}
	return p.stillHostHuge(gfn / mem.PagesPerHuge)
}

// Bucket exposes the huge bucket for introspection.
func (p *GuestPolicy) Bucket() *Bucket { return p.bucket }

// TimeoutCtl exposes the Algorithm 1 controller for introspection.
func (p *GuestPolicy) TimeoutCtl() *TimeoutCtl { return p.ctl }

// BookingCount returns how many huge bookings are currently open — a
// flight-recorder gauge.
func (p *GuestPolicy) BookingCount() int { return len(p.bookings) }

// BucketReuseRate reports reused/taken for the huge bucket (§6.3
// reports 88% on average), and whether any block was ever taken. It is
// the narrow introspection surface result extraction uses, so callers
// need not reach into Bucket internals.
func (p *GuestPolicy) BucketReuseRate() (float64, bool) {
	b := p.bucket
	if b.Taken == 0 {
		return 0, false
	}
	return float64(b.Reused) / float64(b.Taken), true
}

// OnFault implements machine.Policy: EMA placement.
func (p *GuestPolicy) OnFault(L *machine.Layer, va uint64, v *machine.VMA) machine.Decision {
	if p.g.cfg.DisableEMA {
		p.Stats.PlainFaults++
		return machine.Decision{Kind: mem.Base}
	}
	d := p.findDesc(v, va)
	if d == nil {
		d = p.anchor(L, v, va)
		if d == nil {
			p.Stats.PlainFaults++
			return machine.Decision{Kind: mem.Base}
		}
	}
	if frame, ok := p.claim(L, d, va); ok {
		return machine.Decision{Kind: mem.Base, Frame: frame, Allocated: true}
	}
	// Target unavailable: sub-VMA re-anchor for the remainder.
	d.end = va &^ uint64(mem.PageSize-1)
	p.Stats.SubVMAs++
	if d2 := p.anchor(L, v, va); d2 != nil {
		if frame, ok := p.claim(L, d2, va); ok {
			return machine.Decision{Kind: mem.Base, Frame: frame, Allocated: true}
		}
	}
	p.Stats.PlainFaults++
	return machine.Decision{Kind: mem.Base}
}

// stillHostHuge approves bucket blocks that are still backed by a host
// huge page.
func (p *GuestPolicy) stillHostHuge(hi uint64) bool {
	if p.g.vm == nil {
		return false
	}
	_, isHuge, _ := p.g.vm.EPT.Table.LookupHugeRegion(hi * mem.HugeSize)
	return isHuge
}

// OnFreeHugeBlock implements machine.FreeObserver: freed well-aligned
// blocks go to the huge bucket instead of the allocator.
func (p *GuestPolicy) OnFreeHugeBlock(L *machine.Layer, frameBase uint64) bool {
	if p.g.cfg.DisableBucket {
		return false
	}
	hi := frameBase / mem.PagesPerHuge
	if !p.stillHostHuge(hi) || p.bucket.Contains(hi) {
		return false
	}
	p.bucket.Put(hi, p.now, p.g.cfg.BucketTTL)
	return true
}

// TickIdleHorizon implements machine.TickDeadliner: GEMINI's guest
// daemon does unconditional per-tick work (Algorithm 1's EMA control
// step, booking expiry, contiguity-list refresh), so no future tick
// is provably idle and the engine must tick machines running it
// densely. Declared explicitly — rather than by omission — so the
// fast-forward protocol's coverage is visible and locked by tests.
func (p *GuestPolicy) TickIdleHorizon(*machine.Layer) int { return 0 }

// AdvanceIdle implements machine.TickDeadliner; never invoked because
// the horizon is always zero.
func (p *GuestPolicy) AdvanceIdle(*machine.Layer, int) {}

// Tick implements machine.Policy: booking lifecycle, Algorithm 1,
// type-2 promotion, bucket expiry, and a conservative in-place
// collapse pass.
func (p *GuestPolicy) Tick(L *machine.Layer) {
	p.now++
	// Algorithm 1 signals: this VM's TLB misses and guest FMFI.
	if p.g.vm != nil {
		misses := p.g.vm.TLB.Stats().Misses
		p.ctl.Step(misses-p.lastMisses, L.Buddy.FMFI(mem.HugeOrder))
		p.lastMisses = misses
	}
	// Refresh the contiguity list view periodically and drop
	// descriptors whose VMA is gone.
	if p.now%4 == 1 {
		p.runs = L.Buddy.FreeRegionsAtLeast(minAnchorRegion, p.runs)
		p.contig.Rebuild(p.runs)
		p.contigBuiltAt, p.contigBuiltSet = p.now, true
		kept := p.descs[:0]
		for _, d := range p.descs {
			if L.Space.Find(d.start) == d.vma {
				kept = append(kept, d)
			}
		}
		p.descs = kept
	}
	p.serviceBookings(L)
	p.bookMisalignedHost(L)
	if !p.g.cfg.DisablePromoter {
		p.fixType2(L)
	}
	p.expireBucket(L)
	p.collapsePass(L)
	p.khugepagedPass(L)
}

// expireBucket ages the bucket, force-releasing under memory pressure
// or severe fragmentation.
func (p *GuestPolicy) expireBucket(L *machine.Layer) {
	if p.bucket.Len() == 0 {
		return
	}
	force := float64(L.Buddy.FreePages()) <
		p.g.cfg.BucketMinFree*float64(L.Buddy.TotalPages())
	p.bucket.Expire(L, p.now, force)
}
