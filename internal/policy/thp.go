package policy

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// THPParams tunes the Linux transparent huge page model.
type THPParams struct {
	// SyncHugeFault enables huge allocation directly in the fault
	// path (Linux THP "always" mode).
	SyncHugeFault bool
	// CompactCycles is charged to a fault that attempted a huge
	// allocation and failed (direct compaction stall).
	CompactCycles uint64
	// MinPresent is the minimum number of mapped base pages a region
	// needs before khugepaged collapses it. Linux's default
	// max_ptes_none=511 means a single present page suffices.
	MinPresent int
	// ScanBudget bounds regions examined per background tick.
	ScanBudget int
	// PromoteBudget bounds collapses per promotion round; khugepaged
	// is deliberately slow.
	PromoteBudget int
	// PromotePeriod is the number of ticks between promotion rounds.
	PromotePeriod int
	// DeferFaults is how many subsequent huge-eligible faults skip the
	// synchronous allocation after one fails — Linux's deferred
	// compaction backoff, which keeps fault-time huge allocations rare
	// on fragmented hosts.
	DeferFaults int
}

// DefaultTHPParams mirrors Linux defaults scaled to simulator ticks.
func DefaultTHPParams() THPParams {
	return THPParams{
		SyncHugeFault: true,
		CompactCycles: 30_000,
		MinPresent:    1,
		ScanBudget:    64,
		PromoteBudget: 2,
		PromotePeriod: 8,
		DeferFaults:   64,
	}
}

// THP models Linux transparent huge pages at one layer.
type THP struct {
	P        THPParams
	cursor   int
	now      uint64
	deferred int // remaining faults skipping sync allocation
}

// NewTHP returns a THP policy with the given parameters.
func NewTHP(p THPParams) *THP { return &THP{P: p} }

// Name implements Policy.
func (t *THP) Name() string { return "thp" }

// OnFault implements Policy: the first fault in an untouched,
// fully-VMA-contained 2 MiB region attempts a synchronous huge
// allocation; failure costs a compaction stall and falls back to base.
func (t *THP) OnFault(L *machine.Layer, va uint64, v *machine.VMA) machine.Decision {
	if !t.triesHuge(L, va, v) {
		return machine.Decision{Kind: mem.Base}
	}
	if t.deferred > 0 {
		// Deferred compaction: a recent failure put the fault path on
		// backoff, so it does not even try (and pays no stall).
		t.deferred--
		return machine.Decision{Kind: mem.Base}
	}
	if f, err := L.Buddy.Alloc(mem.HugeOrder); err == nil {
		return machine.Decision{Kind: mem.Huge, Frame: f, Allocated: true}
	}
	t.deferred = t.P.DeferFaults
	return machine.Decision{Kind: mem.Base, ExtraCycles: t.P.CompactCycles}
}

// OnFaultRun implements machine.RunPolicy. Once the run's region holds
// a page, or when OnFault never tries a huge page there, every page of
// the run is a base page. The first fault in an empty region is left to
// OnFault: it tries a huge allocation or spends a deferral.
func (t *THP) OnFaultRun(L *machine.Layer, va uint64, n int, v *machine.VMA) (int, uint64, bool) {
	if t.triesHuge(L, va, v) {
		return 0, 0, false
	}
	return n, 0, false
}

// triesHuge reports whether a fault at va is the first fault in an
// untouched, fully-VMA-contained 2 MiB region, where OnFault tries a
// synchronous huge allocation.
func (t *THP) triesHuge(L *machine.Layer, va uint64, v *machine.VMA) bool {
	if !t.P.SyncHugeFault || !machine.RegionInVMA(va&^uint64(mem.HugeSize-1), v) {
		return false
	}
	_, isHuge, present := L.Table.LookupHugeRegion(va)
	return !isHuge && present == 0
}

// Tick implements Policy: khugepaged scans regions round-robin and
// collapses those with at least MinPresent mapped pages.
func (t *THP) Tick(L *machine.Layer) {
	t.now++
	if t.P.PromotePeriod > 1 && t.now%uint64(t.P.PromotePeriod) != 0 {
		return
	}
	regions := L.Space.HugeRegions()
	if len(regions) == 0 {
		return
	}
	scanned, promoted := 0, 0
	for i := 0; i < len(regions) && scanned < t.P.ScanBudget && promoted < t.P.PromoteBudget; i++ {
		va := regions[(t.cursor+i)%len(regions)]
		scanned++
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		_, isHuge, present := L.Table.LookupHugeRegion(va)
		if isHuge || present < t.P.MinPresent {
			continue
		}
		if tryPromote(L, va) {
			promoted++
		}
	}
	t.cursor = (t.cursor + scanned) % len(regions)
}
