package policy

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// RangerParams tunes the Translation Ranger model.
type RangerParams struct {
	// MigratePagesPerTick bounds pages migrated for contiguity per
	// tick — the knob behind Ranger's characteristic overhead.
	MigratePagesPerTick int
	// AlignEvery makes every Nth compacted region use a huge-aligned
	// destination; Ranger targets contiguity for coalescing TLBs, so
	// alignment (and hence huge pages) arises only opportunistically.
	AlignEvery int
	// ScanBudget bounds regions examined per tick.
	ScanBudget int
	// ResweepTicks is how often a compacted region becomes eligible
	// again: Ranger continuously restores contiguity eroded by
	// allocation churn, which is where its standing overhead
	// comes from.
	ResweepTicks uint64
}

// DefaultRangerParams returns defaults.
func DefaultRangerParams() RangerParams {
	return RangerParams{
		MigratePagesPerTick: 512,
		AlignEvery:          8,
		ScanBudget:          64,
		ResweepTicks:        48,
	}
}

// Ranger models Translation Ranger (ISCA'19): a background engine that
// continually migrates pages to build physically contiguous spans.
// Contiguity helps hardware coalescing TLBs, which the simulated
// machine does not have; what transfers to this setting is the
// migration overhead (page copies and TLB shootdowns charged to the
// foreground) plus the opportunistic huge pages created when a
// compacted span happens to be huge-aligned — exactly the behaviour
// the paper reports (lowest well-aligned rates, worst throughput).
type Ranger struct {
	P       RangerParams
	cursor  int
	regionN int // counts compacted regions for AlignEvery
	now     uint64
	done    map[uint64]uint64 // region -> tick of last compaction
}

// NewRanger returns a Ranger policy.
func NewRanger(p RangerParams) *Ranger {
	return &Ranger{P: p, done: make(map[uint64]uint64)}
}

// Name implements Policy.
func (r *Ranger) Name() string { return "ranger" }

// OnFault implements Policy: plain base pages.
func (r *Ranger) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// Tick implements Policy: compact populated regions into contiguous
// destinations, charging full migration costs; aligned destinations
// (every AlignEvery-th region) become huge pages in place.
func (r *Ranger) Tick(L *machine.Layer) {
	r.now++
	regions := L.Space.HugeRegions()
	if len(regions) == 0 {
		return
	}
	budget := r.P.MigratePagesPerTick
	scanned := 0
	for i := 0; i < len(regions) && scanned < r.P.ScanBudget && budget > 0; i++ {
		va := regions[(r.cursor+i)%len(regions)]
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		if last, ok := r.done[va]; ok && r.now-last < r.P.ResweepTicks {
			continue
		}
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present == 0 {
			continue
		}
		if present > budget {
			continue
		}
		aligned := r.P.AlignEvery > 0 && r.regionN%r.P.AlignEvery == 0
		if r.compactRegion(L, va, present, aligned) {
			budget -= present
			r.regionN++
			r.done[va] = r.now
		}
	}
	r.cursor = (r.cursor + scanned) % len(regions)
}

// compactRegion migrates the region's present pages into one
// contiguous destination run. When aligned is true the destination is
// a huge-aligned order-9 block placed at matching page offsets, which
// makes the region collapsible; otherwise an arbitrary free run is
// used (contiguity without alignment).
func (r *Ranger) compactRegion(L *machine.Layer, va uint64, present int, aligned bool) bool {
	if aligned {
		// Full promotion path: allocate an aligned block, copy, and
		// map huge (Ranger's opportunistic huge pages).
		return L.PromoteMigrate(va, nil) == nil
	}
	// Contiguity-only compaction: move the present pages onto one
	// free run, obtained as the smallest buddy block that holds them
	// (a block is by construction one contiguous run).
	order := 0
	for uint64(1)<<order < uint64(present) {
		order++
	}
	dest, err := L.Buddy.Alloc(order)
	if err != nil {
		return false
	}
	var pages []uint64
	L.Table.ScanRange(va, va+mem.HugeSize, func(m pagetable.Mapping) bool {
		pages = append(pages, m.VA)
		return true
	})
	// frees gathers the moved pages' old frames and then the block's
	// unused tail, all returned in one call.
	var buf [mem.PagesPerHuge]uint64
	frees := buf[:0]
	for i, pva := range pages {
		// The destination block was free, so it cannot contain any
		// currently mapped frame; every page really moves.
		old, err := L.Table.Remap4K(pva, dest+uint64(i))
		if err != nil {
			panic("policy: ranger remap of scanned page failed: " + err.Error())
		}
		frees = append(frees, old)
		L.Stats.MigratedPages++
		L.Stats.BackgroundCycles += L.Costs.CopyPage
	}
	for i := uint64(len(pages)); i < uint64(1)<<order; i++ {
		frees = append(frees, dest+i)
	}
	L.Buddy.FreeFrames(frees)
	L.AddStall(L.Costs.Shootdown + uint64(len(pages))*L.Costs.CachePollution)
	if L.FlushRegion != nil {
		L.FlushRegion(va)
	}
	return true
}
