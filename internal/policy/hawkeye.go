package policy

import (
	"sort"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// HawkEyeParams tunes the HawkEye model.
type HawkEyeParams struct {
	// UtilThreshold is the minimum present pages for promotability.
	// HawkEye promotes hot regions earlier than Ingens, so its
	// utilization floor is lower.
	UtilThreshold int
	// ScanBudget bounds regions examined per tick.
	ScanBudget int
	// PromoteBudget bounds promotions per promotion round.
	PromoteBudget int
	// PromotePeriod is the number of ticks between promotion rounds.
	PromotePeriod int
	// DedupBudget bounds zero pages deduplicated per tick.
	DedupBudget int
}

// DefaultHawkEyeParams returns the published defaults.
func DefaultHawkEyeParams() HawkEyeParams {
	return HawkEyeParams{
		UtilThreshold: 256,
		ScanBudget:    128,
		PromoteBudget: 2,
		PromotePeriod: 2,
		DedupBudget:   8,
	}
}

// HawkEye models the ASPLOS'19 system: promotion ordered by access
// coverage (hottest regions first, measured here with the layer's
// per-region heat counters), async like Ingens, plus zero-page
// deduplication that reclaims untouched-but-mapped pages at the cost
// of copy-on-write refaults — the behaviour behind the Specjbb latency
// anomaly in §6.2 of the paper.
type HawkEye struct {
	P   HawkEyeParams
	now uint64
}

// NewHawkEye returns a HawkEye policy with the given parameters.
func NewHawkEye(p HawkEyeParams) *HawkEye { return &HawkEye{P: p} }

// Name implements Policy.
func (h *HawkEye) Name() string { return "hawkeye" }

// OnFault implements Policy: base pages only; promotion is async.
func (h *HawkEye) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// Tick implements Policy.
func (h *HawkEye) Tick(L *machine.Layer) {
	h.now++
	if h.P.PromotePeriod > 1 && h.now%uint64(h.P.PromotePeriod) != 0 {
		return
	}
	type cand struct {
		va   uint64
		heat uint64
	}
	var cands []cand
	scanned := 0
	regions := L.Space.HugeRegions()
	threshold := h.P.UtilThreshold
	if L.Name == "ept" {
		// Relative density at the host layer; see the Ingens note.
		maxPresent := 0
		for _, va := range regions {
			if _, isHuge, present := L.Table.LookupHugeRegion(va); !isHuge && present > maxPresent {
				maxPresent = present
			}
		}
		threshold = maxPresent * h.P.UtilThreshold / mem.PagesPerHuge
		if threshold < 1 {
			threshold = 1
		}
	}
	for _, va := range regions {
		if scanned >= h.P.ScanBudget {
			break
		}
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present < threshold {
			continue
		}
		if heat := L.Heat(va); heat > 0 {
			cands = append(cands, cand{va, heat})
		}
	}
	// Access-coverage order: hottest first; ties by address for
	// determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].heat != cands[j].heat {
			return cands[i].heat > cands[j].heat
		}
		return cands[i].va < cands[j].va
	})
	promoted := 0
	for _, c := range cands {
		if promoted >= h.P.PromoteBudget {
			break
		}
		if tryPromote(L, c.va) {
			promoted++
		}
	}
	h.dedup(L, regions)
}

// dedup removes mapped zero pages from cold regions. The layer's
// ZeroFraction (a workload property) caps how much of mapped memory is
// deduplicable.
func (h *HawkEye) dedup(L *machine.Layer, regions []uint64) {
	if L.ZeroFraction <= 0 || h.P.DedupBudget <= 0 {
		return
	}
	maxDeduped := uint64(L.ZeroFraction * float64(L.MappedPages()))
	if L.Stats.DedupedPages >= maxDeduped {
		return
	}
	budget := h.P.DedupBudget
	for _, va := range regions {
		if budget == 0 || L.Stats.DedupedPages >= maxDeduped {
			return
		}
		if L.Heat(va) > 0 {
			continue // only cold regions
		}
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present == 0 {
			continue
		}
		var victims []uint64
		L.Table.ScanRange(va, va+mem.HugeSize, func(m pagetable.Mapping) bool {
			victims = append(victims, m.VA)
			return len(victims) < budget
		})
		for _, pva := range victims {
			if L.DedupPage(pva) == nil {
				budget--
			}
		}
	}
}
