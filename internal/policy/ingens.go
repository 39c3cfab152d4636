package policy

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// IngensParams tunes the Ingens model.
type IngensParams struct {
	// UtilThreshold is the number of present base pages (out of 512)
	// a region needs before asynchronous promotion. Ingens' default
	// is 90% utilization (460 pages).
	UtilThreshold int
	// ScanBudget bounds regions examined per tick.
	ScanBudget int
	// PromoteBudget bounds promotions per promotion round. Ingens
	// promotes asynchronously with a dedicated thread, so it sustains
	// a higher rate than khugepaged without adding fault latency.
	PromoteBudget int
	// PromotePeriod is the number of ticks between promotion rounds.
	PromotePeriod int
}

// DefaultIngensParams returns the published defaults.
func DefaultIngensParams() IngensParams {
	return IngensParams{
		UtilThreshold: 460,
		ScanBudget:    128,
		PromoteBudget: 2,
		PromotePeriod: 2,
	}
}

// Ingens models the OSDI'16 system: no synchronous huge faults (so no
// first-touch latency spikes), promotion only when a region is almost
// fully utilized (so little memory bloat), performed asynchronously.
type Ingens struct {
	P      IngensParams
	cursor int
	now    uint64
}

// NewIngens returns an Ingens policy with the given parameters.
func NewIngens(p IngensParams) *Ingens { return &Ingens{P: p} }

// Name implements Policy.
func (g *Ingens) Name() string { return "ingens" }

// OnFault implements Policy: always base pages; promotion is the
// background thread's job.
func (g *Ingens) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// Tick implements Policy: promote regions whose utilization crossed
// the threshold, round-robin across the address space for fairness
// (Ingens' share-based policy approximated as equal shares).
func (g *Ingens) Tick(L *machine.Layer) {
	g.now++
	if g.P.PromotePeriod > 1 && g.now%uint64(g.P.PromotePeriod) != 0 {
		return
	}
	regions := L.Space.HugeRegions()
	if len(regions) == 0 {
		return
	}
	threshold := g.P.UtilThreshold
	if L.Name == "ept" {
		// At the host layer, presence accumulates only as the guest
		// re-touches pages, far more slowly than virtual-layer
		// presence; interpret the 90% utilization rule relative to
		// the densest candidate so the gate keeps its selectivity.
		maxPresent := 0
		for _, va := range regions {
			if _, isHuge, present := L.Table.LookupHugeRegion(va); !isHuge && present > maxPresent {
				maxPresent = present
			}
		}
		threshold = maxPresent * g.P.UtilThreshold / mem.PagesPerHuge
		if threshold < 1 {
			threshold = 1
		}
	}
	scanned, promoted := 0, 0
	for i := 0; i < len(regions) && scanned < g.P.ScanBudget && promoted < g.P.PromoteBudget; i++ {
		va := regions[(g.cursor+i)%len(regions)]
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present < threshold {
			continue
		}
		if tryPromote(L, va) {
			promoted++
		}
	}
	g.cursor = (g.cursor + scanned) % len(regions)
}
