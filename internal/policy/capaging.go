package policy

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// CAPagingParams tunes the contiguity-aware paging model.
type CAPagingParams struct {
	// MaxAnchorSearch bounds the free regions examined when choosing
	// an anchor for a newly touched VMA.
	MaxAnchorSearch int
	// ScanBudget / PromoteBudget bound the opportunistic background
	// collapser (CA-paging runs on top of THP's khugepaged).
	ScanBudget    int
	PromoteBudget int
	// PromotePeriod is the number of ticks between promotion rounds.
	PromotePeriod int
}

// DefaultCAPagingParams returns defaults.
func DefaultCAPagingParams() CAPagingParams {
	return CAPagingParams{
		MaxAnchorSearch: 32,
		ScanBudget:      64,
		PromoteBudget:   2,
		PromotePeriod:   8,
	}
}

// CAPaging models the ISCA'20 system's software component: on the
// first fault in a VMA it picks an anchor in free physical memory and
// places every subsequent fault of the VMA at anchor + page offset,
// building virtual-to-physical contiguity eagerly. The anchor is
// chosen congruent to the VMA start modulo the huge page size, so
// contiguous runs are also huge-aligned and the background collapser
// can promote them in place. The two layers still act independently,
// so well-aligned huge pages arise only by chance.
type CAPaging struct {
	P       CAPagingParams
	anchors map[int]uint64 // VMA ID -> anchor frame
	cursor  int
	now     uint64
	runs    []mem.Region // reused FreeRegionsAtLeast buffer
}

// NewCAPaging returns a CA-paging policy.
func NewCAPaging(p CAPagingParams) *CAPaging {
	return &CAPaging{P: p, anchors: make(map[int]uint64)}
}

// Name implements Policy.
func (c *CAPaging) Name() string { return "ca-paging" }

// chooseAnchor picks an anchor frame for the VMA: the first free
// region that fits the whole VMA, else the largest free region, with
// the anchor advanced so that target frames for huge-aligned virtual
// addresses are huge-aligned.
func (c *CAPaging) chooseAnchor(L *machine.Layer, v *machine.VMA) (uint64, bool) {
	c.runs = L.Buddy.FreeRegionsAtLeast(1, c.runs)
	want := v.Pages()
	var best mem.Region
	found := false
	for i, r := range c.runs {
		if i >= c.P.MaxAnchorSearch && found {
			break
		}
		if r.Pages >= want {
			best, found = r, true
			break
		}
		if !found || r.Pages > best.Pages {
			best, found = r, true
		}
	}
	if !found {
		return 0, false
	}
	// Align: we need target(vaHugeBase) % 512 == 0 where
	// target = anchor + (vaPage - vmaStartPage). vaHugeBase pages are
	// multiples of 512, so anchor must be congruent to vmaStartPage
	// modulo 512.
	vmaStartPage := v.Start / mem.PageSize
	anchor := best.Start
	congr := vmaStartPage % mem.PagesPerHuge
	if rem := anchor % mem.PagesPerHuge; rem != congr {
		anchor += (congr + mem.PagesPerHuge - rem) % mem.PagesPerHuge
	}
	if anchor >= best.End() {
		return 0, false
	}
	return anchor, true
}

// noAnchor marks a VMA whose anchor search failed; retried after the
// next background tick rather than on every fault (an anchor search
// walks the allocator's free regions, far too costly per fault).
const noAnchor = ^uint64(0)

// OnFault implements Policy: targeted base-page placement preserving
// VMA contiguity.
func (c *CAPaging) OnFault(L *machine.Layer, va uint64, v *machine.VMA) machine.Decision {
	anchor, ok := c.anchors[v.ID]
	if !ok {
		a, found := c.chooseAnchor(L, v)
		if !found {
			a = noAnchor
		}
		anchor = a
		c.anchors[v.ID] = anchor
	}
	if anchor == noAnchor {
		return machine.Decision{Kind: mem.Base}
	}
	offset := (va - v.Start) / mem.PageSize
	target := anchor + offset
	if target < L.Buddy.TotalPages() && L.Buddy.AllocAt(target, 0) == nil {
		return machine.Decision{Kind: mem.Base, Frame: target, Allocated: true}
	}
	return machine.Decision{Kind: mem.Base}
}

// Tick implements Policy: opportunistic collapse of regions that the
// contiguous placement made promotable, preferring in-place.
func (c *CAPaging) Tick(L *machine.Layer) {
	// Give failed anchor searches another chance now that memory has
	// churned.
	for id, a := range c.anchors {
		if a == noAnchor {
			delete(c.anchors, id)
		}
	}
	c.now++
	if c.P.PromotePeriod > 1 && c.now%uint64(c.P.PromotePeriod) != 0 {
		return
	}
	regions := hugeRegions(L)
	if len(regions) == 0 {
		return
	}
	scanned, promoted := 0, 0
	for i := 0; i < len(regions) && scanned < c.P.ScanBudget && promoted < c.P.PromoteBudget; i++ {
		va := regions[(c.cursor+i)%len(regions)]
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present == 0 {
			continue
		}
		// CA-paging runs on top of Linux THP: contiguous placements
		// collapse in place, anything else falls to khugepaged's
		// migration collapse.
		if tryPromote(L, va) {
			promoted++
		}
	}
	c.cursor = (c.cursor + scanned) % len(regions)
}
