package core

// This file implements MHPP, Gemini's mis-aligned huge page promoter
// (§4): type-2 consolidation (evacuate a partially-mapped host-huge
// region, migrate the dominant guest virtual region into it), the
// conservative in-place collapse pass over EMA-placed regions, and the
// bounded khugepaged-style sweep Gemini builds on.

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/trace"
)

// khugepagedPass is the "existing system component for page
// coalescing" (§3) that Gemini builds on: after the targeted work, a
// bounded khugepaged-style sweep promotes well-utilized regions that
// EMA could not place contiguously (e.g. when fragmentation denied an
// aligned anchor and blocks only became available later).
func (p *GuestPolicy) khugepagedPass(L *machine.Layer) {
	if p.g.cfg.PromotePeriod > 1 && p.now%uint64(p.g.cfg.PromotePeriod) != 0 {
		return
	}
	const utilThreshold = 448
	budget := p.g.cfg.PromoteBudget
	regions := L.Space.HugeRegions()
	if len(regions) == 0 {
		return
	}
	scanned := 0
	for i := 0; i < len(regions) && scanned < 128 && budget > 0; i++ {
		va := regions[(p.khCursor+i)%len(regions)]
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present < utilThreshold {
			continue
		}
		info := L.Table.InspectCollapse(va)
		if info.Present == mem.PagesPerHuge && info.Contiguous {
			if L.PromoteInPlace(va) == nil {
				budget--
			}
			continue
		}
		if L.PromoteMigrate(va, nil) == nil {
			budget--
		}
	}
	p.khCursor = (p.khCursor + scanned) % len(regions)
}

// fixType2 consolidates type-2 mis-aligned host huge pages: the guest
// pages occupying the region are evacuated, then the dominant guest
// virtual region is migrated into it and promoted, forming a
// well-aligned pair.
func (p *GuestPolicy) fixType2(L *machine.Layer) {
	if p.g.vm == nil {
		return
	}
	if p.g.cfg.PromotePeriod > 1 && p.now%uint64(p.g.cfg.PromotePeriod) != 0 {
		return
	}
	_, type2 := p.g.MisalignedHostRegions()
	budget := p.g.cfg.PromoteBudget
	for _, hi := range type2 {
		if budget == 0 {
			return
		}
		if p.consolidate(L, hi) {
			p.Stats.Type2Fixes++
			budget--
		}
	}
}

// consolidate performs one type-2 fix on the GPA region hi.
func (p *GuestPolicy) consolidate(L *machine.Layer, hi uint64) bool {
	dom, n, ok := p.g.DominantGVA(hi)
	if !ok || n < 64 {
		return false // not worth 512 copies
	}
	v := L.Space.Find(dom)
	if v == nil || !machine.RegionInVMA(dom, v) {
		return false
	}
	if _, isHuge, _ := L.Table.LookupHugeRegion(dom); isHuge {
		return false
	}
	if _, booked := p.bookings[hi]; booked {
		return false
	}
	start := hi * mem.PagesPerHuge
	region := mem.Region{Start: start, Pages: mem.PagesPerHuge}
	// Step 1: claim every still-free frame of the region, so that the
	// relocation allocations below can never land inside it.
	var claimed []uint64
	for f := start; f < start+mem.PagesPerHuge; f++ {
		if L.Buddy.AllocAt(f, 0) == nil {
			claimed = append(claimed, f)
		}
	}
	// rollback frees the claimed frames and the evacuated pages' old
	// frames.
	var evacuated []uint64
	rollback := func() {
		L.Buddy.FreeFrames(claimed)
		L.Buddy.FreeFrames(evacuated)
	}
	// Step 2: evacuate every live guest mapping out of the region.
	// Their old frames are kept (not freed) so we end up owning them.
	owned := len(claimed)
	rev := p.g.ReverseMappings(hi)
	for _, e := range rev {
		f, kind, live := L.Table.Lookup(e.VA)
		if !live || kind != mem.Base || f != e.Frame || !region.Contains(f) {
			continue // stale scan entry
		}
		dest, err := L.Buddy.Alloc(0)
		if err != nil {
			break
		}
		if _, err := L.Table.Remap4K(e.VA, dest); err != nil {
			panic("core: consolidate remap: " + err.Error())
		}
		evacuated = append(evacuated, f)
		owned++
		L.Stats.MigratedPages++
		L.Stats.BackgroundCycles += L.Costs.CopyPage
	}
	L.AddStall(L.Costs.Shootdown + uint64(len(evacuated))*L.Costs.CachePollution)
	if owned != mem.PagesPerHuge {
		// Frames the scan missed (or unmovable allocations) remain:
		// the region cannot be consolidated this round.
		rollback()
		return false
	}
	// Step 3: the region is wholly ours; migrate the dominant guest
	// virtual region into it and promote.
	target := start
	if err := L.PromoteMigrate(dom, &target); err != nil {
		rollback()
		return false
	}
	if L.Trace != nil {
		L.Trace.Event(trace.EvMigration, dom, start, mem.HugeOrder, uint64(len(evacuated)), "consolidate")
	}
	return true
}

// collapsePass promotes fully-populated, contiguous, aligned regions
// in place — the cheap path EMA placement makes common. It never
// migrates, so it cannot create excessive huge pages.
func (p *GuestPolicy) collapsePass(L *machine.Layer) {
	budget := 8
	for _, d := range p.descs {
		if budget == 0 {
			return
		}
		if !d.aligned {
			continue
		}
		for va := d.start; va+mem.HugeSize <= d.end && budget > 0; va += mem.HugeSize {
			L.Stats.BackgroundCycles += L.Costs.ScanRegion
			if _, isHuge, _ := L.Table.LookupHugeRegion(va); isHuge {
				continue
			}
			info := L.Table.InspectCollapse(va)
			if info.Present == mem.PagesPerHuge && info.Contiguous {
				if L.PromoteInPlace(va) == nil {
					budget--
				}
			}
		}
	}
}
