package core

import (
	"repro/internal/contig"
	"repro/internal/machine"
	"repro/internal/mem"
)

// HostStats counts Gemini host-side events.
type HostStats struct {
	// EagerBackings counts type-1 fixes: guest huge pages backed with
	// a fresh host huge page before any EPT fault.
	EagerBackings uint64
	// FaultBackings counts EPT faults in guest-huge regions satisfied
	// directly with a huge mapping.
	FaultBackings uint64
	// Type2InPlace counts EPT regions promoted in place under a guest
	// huge page (the cheap path host-side EMA placement enables).
	Type2InPlace uint64
	// Type2Migrations counts EPT regions promoted by migration.
	Type2Migrations uint64
	// Anchors counts host-side EMA anchors (HostOffset descriptors).
	Anchors uint64
}

// noAnchor marks a GPA region whose anchor search failed.
const noAnchor = ^uint64(0)

// HostPolicy is Gemini's host (EPT) side: it runs the mis-aligned
// huge page scanner, places host frames with the HostOffset discipline
// of Figure 5 (HPA aligned to GPA at huge boundaries, so EPT regions
// can be collapsed in place), and spends the host's scarce huge blocks
// exactly on the guest physical regions where the guest formed huge
// pages. It implements machine.Policy.
type HostPolicy struct {
	g   *Gemini
	now uint64

	// anchors maps GPA huge index -> host frame block start chosen on
	// the region's first EPT fault (HostOffset = GPA1 - HPA1).
	anchors        map[uint64]uint64
	contig         *contig.List
	runs           []mem.Region // reused FreeRegionsAtLeast buffer
	contigBuiltAt  uint64
	contigBuiltSet bool

	// Stats counts host-side events.
	Stats HostStats
}

func newHostPolicy(g *Gemini) *HostPolicy {
	return &HostPolicy{
		g:       g,
		anchors: make(map[uint64]uint64),
		contig:  contig.New(),
	}
}

// Name implements machine.Policy.
func (p *HostPolicy) Name() string { return "gemini-host" }

// KeepHuge implements machine.DemotionFilter: under memory pressure
// only mis-aligned host huge pages may be demoted; well-aligned pairs
// are the system's whole point and stay intact (§8).
func (p *HostPolicy) KeepHuge(L *machine.Layer, vaBase uint64) bool {
	return p.g.GuestHugeAt(vaBase >> mem.HugeShift)
}

// OnFault implements machine.Policy. An EPT fault in a region the
// guest maps huge is backed with a host huge page immediately when the
// region is untouched. Everything else gets a base page placed at
// anchor + offset so the region stays collapsible in place; Gemini
// "does not create huge pages excessively" (§3).
func (p *HostPolicy) OnFault(L *machine.Layer, gpa uint64, v *machine.VMA) machine.Decision {
	hi := gpa >> mem.HugeShift
	if p.triesHuge(L, gpa, v) {
		if f, err := L.Buddy.Alloc(mem.HugeOrder); err == nil {
			p.Stats.FaultBackings++
			return machine.Decision{Kind: mem.Huge, Frame: f, Allocated: true}
		}
	}
	// HostOffset placement: first fault in the region picks an
	// aligned anchor; later faults land at anchor + page offset.
	if anchor := p.anchorFor(L, hi); anchor != noAnchor {
		target := anchor + (gpa>>mem.PageShift)%mem.PagesPerHuge
		if L.Buddy.AllocAt(target, 0) == nil {
			return machine.Decision{Kind: mem.Base, Frame: target, Allocated: true}
		}
	}
	return machine.Decision{Kind: mem.Base}
}

// OnFaultRun implements machine.RunPolicy: HostOffset placement for the
// run, with one anchor lookup for its region. The pages land at anchor
// + page offset up to the first target that is not free; without an
// anchor they are all left to the allocator. A region the guest maps
// huge and the EPT leaves empty is left to OnFault, which tries a huge
// backing first.
func (p *HostPolicy) OnFaultRun(L *machine.Layer, gpa uint64, n int, v *machine.VMA) (int, uint64, bool) {
	if p.triesHuge(L, gpa, v) {
		return 0, 0, false
	}
	hi := gpa >> mem.HugeShift
	anchor := p.anchorFor(L, hi)
	if anchor == noAnchor {
		return n, 0, false
	}
	target := anchor + (gpa>>mem.PageShift)%mem.PagesPerHuge
	return L.Buddy.AllocRunAt(target, n), target, true
}

// triesHuge reports whether a fault at gpa tries a host huge backing
// first: the guest maps the region huge, the region lies inside the VMA
// and the EPT maps nothing in it yet.
func (p *HostPolicy) triesHuge(L *machine.Layer, gpa uint64, v *machine.VMA) bool {
	if !p.g.GuestHugeAt(gpa>>mem.HugeShift) || !machine.RegionInVMA(gpa&^uint64(mem.HugeSize-1), v) {
		return false
	}
	_, isHuge, present := L.Table.LookupHugeRegion(gpa)
	return !isHuge && present == 0
}

// anchorFor returns the HostOffset anchor of the GPA region hi, picking
// an aligned one on the region's first fault, or noAnchor when the
// search failed.
func (p *HostPolicy) anchorFor(L *machine.Layer, hi uint64) uint64 {
	anchor, ok := p.anchors[hi]
	if ok {
		return anchor
	}
	if p.contig.Len() == 0 && (!p.contigBuiltSet || p.contigBuiltAt != p.now) {
		p.runs = L.Buddy.FreeRegionsAtLeast(minAnchorRegion, p.runs)
		p.contig.Rebuild(p.runs)
		p.contigBuiltAt, p.contigBuiltSet = p.now, true
	}
	anchor = noAnchor
	if f, found := p.contig.FindNextFitAligned(mem.PagesPerHuge, mem.PagesPerHuge); found {
		anchor = f
		p.Stats.Anchors++
	}
	p.anchors[hi] = anchor
	return anchor
}

// TickIdleHorizon implements machine.TickDeadliner: the host daemon
// runs MHPS's scan and the periodic contiguity refresh every tick
// regardless of the promotion period, so it never declares idle ticks
// (see GuestPolicy.TickIdleHorizon).
func (p *HostPolicy) TickIdleHorizon(*machine.Layer) int { return 0 }

// AdvanceIdle implements machine.TickDeadliner; never invoked because
// the horizon is always zero.
func (p *HostPolicy) AdvanceIdle(*machine.Layer, int) {}

// Tick implements machine.Policy: run MHPS, then fix mis-aligned
// guest huge pages — type-1 by eagerly installing huge EPT backings,
// type-2 by steering EPT promotion to those regions first (MHPP),
// preferring the in-place collapse the HostOffset placement enables.
func (p *HostPolicy) Tick(L *machine.Layer) {
	p.now++
	p.g.Scan(p.now)
	if p.now%4 == 1 {
		p.runs = L.Buddy.FreeRegionsAtLeast(minAnchorRegion, p.runs)
		p.contig.Rebuild(p.runs)
		p.contigBuiltAt, p.contigBuiltSet = p.now, true
		p.pruneAnchors()
	}
	if p.g.cfg.PromotePeriod > 1 && p.now%uint64(p.g.cfg.PromotePeriod) != 0 {
		return
	}
	type1, type2 := p.g.MisalignedGuestRegions()
	budget := p.g.cfg.HostBackBudget
	for _, hi := range type1 {
		if budget == 0 {
			break
		}
		if err := L.MapHugeEager(hi * mem.HugeSize); err == nil {
			p.Stats.EagerBackings++
			budget--
		} else if L.Buddy.FreeHugeCandidates() == 0 {
			break // no blocks anywhere; stop trying this tick
		}
	}
	pbudget := p.g.cfg.PromoteBudget
	for _, hi := range type2 {
		if pbudget == 0 {
			break
		}
		gpaBase := hi * mem.HugeSize
		info := L.Table.InspectCollapse(gpaBase)
		if info.Present == mem.PagesPerHuge && info.Contiguous {
			if L.PromoteInPlace(gpaBase) == nil {
				p.Stats.Type2InPlace++
				pbudget--
				continue
			}
		}
		if L.PromoteMigrate(gpaBase, nil) == nil {
			p.Stats.Type2Migrations++
			pbudget--
		}
	}
}

// pruneAnchors drops failed anchor markers so regions get another
// chance after memory churn, and caps map growth.
func (p *HostPolicy) pruneAnchors() {
	for hi, a := range p.anchors {
		if a == noAnchor {
			delete(p.anchors, hi)
		}
	}
}
