package main

import (
	"sort"
	"time"
)

// metric is one reported quantity: its name and unit as BENCHMARK.json
// declares them.
type metric struct {
	name, unit string
}

// endToEnd are the untraced run's metrics (--trace 0).
var endToEnd = []metric{
	{"pass_s", "s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"peak_heap_mb", "MB"},
}

// perLayer are the traced run's metrics (--trace 1). Spans are host
// seconds per traced pass; counts are exact simulated totals per pass.
var perLayer = []metric{
	{"sim.fragment_s", "s"},
	{"sim.release_s", "s"},
	{"sim.other_s", "s"},
	{"workload.populate_s", "s"},
	{"workload.step_s", "s"},
	{"workload.step_ns_per_access", "ns"},
	{"machine.tick_s", "s"},
	{"machine.tick_us_p50", "us"},
	{"machine.tick_us_p99", "us"},
	{"machine.ff_s", "s"},
	{"machine.dense_ticks", "count"},
	{"machine.skipped_ticks", "count"},
	{"machine.ff_skip_ratio", "ratio"},
	{"machine.alloc_fallback_calls", "count"},
	{"machine.alloc_fallback_s", "s"},
	{"machine.shootdowns", "count"},
	{"tlb.miss_per_kacc", "1/kacc"},
	{"tlb.pwc_hit_ratio", "ratio"},
	{"tlb.walk_refs_per_access", "refs"},
	{"machine.guest_faults", "count"},
	{"machine.ept_faults", "count"},
	{"machine.ept_huge_fault_ratio", "ratio"},
	{"policy.promotions", "count"},
	{"policy.promotion_success_ratio", "ratio"},
	{"machine.migrated_pages", "count"},
	{"machine.compacted_regions", "count"},
	{"swap.out_pages", "count"},
	{"swap.in_pages", "count"},
	{"balloon.pages", "count"},
	{"fleet.new_s", "s"},
	{"fleet.tick_s", "s"},
	{"fleet.tick_ms_p50", "ms"},
	{"fleet.tick_ms_p99", "ms"},
	{"fleet.event_tick_ms_p50", "ms"},
	{"fleet.quiet_tick_ms_p50", "ms"},
	{"fleet.placed", "count"},
	{"fleet.rejected", "count"},
	{"fleet.migrations", "count"},
	{"fleet.migrated_pages", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"trace.pass_s", "s"},
	{"trace.overhead_ratio", "ratio"},
	{"fail_ratio", "ratio"},
}

// value is one metric's reported number and unit, the shape the result
// line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report fills every metric of set from vals, in the set's units.
// Metrics missing from vals report 0.
func report(set []metric, vals map[string]float64) map[string]value {
	out := make(map[string]value, len(set))
	for _, m := range set {
		out[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
	return out
}

// quantile returns the q-quantile (nearest rank) of ds, or 0 when ds
// is empty. It sorts ds in place.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	i := int(q*float64(len(ds)-1) + 0.5)
	return ds[i]
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerValues turns one workload's traced passes into the per-layer
// metrics. passes is the number of traced passes t accumulated; counts
// are identical across passes, so totals divide exactly.
func layerValues(t *tracer, passes int) map[string]float64 {
	p := float64(passes)
	perPass := func(d time.Duration) float64 { return d.Seconds() / p }
	n := func(c uint64) float64 { return float64(c) / p }
	c := t.sim
	ticks := float64(t.denseTicks + t.skippedTicks)
	return map[string]float64{
		"sim.fragment_s":                 perPass(t.fragment),
		"sim.release_s":                  perPass(t.release),
		"sim.other_s":                    perPass(t.other),
		"workload.populate_s":            perPass(t.populate),
		"workload.step_s":                perPass(t.step),
		"workload.step_ns_per_access":    ratio(float64(t.step.Nanoseconds()), float64(t.stepAccesses)),
		"machine.tick_s":                 perPass(t.tick),
		"machine.tick_us_p50":            float64(quantile(t.tickDurs, 0.5).Nanoseconds()) / 1e3,
		"machine.tick_us_p99":            float64(quantile(t.tickDurs, 0.99).Nanoseconds()) / 1e3,
		"machine.ff_s":                   perPass(t.ff),
		"machine.dense_ticks":            n(t.denseTicks),
		"machine.skipped_ticks":          n(t.skippedTicks),
		"machine.ff_skip_ratio":          ratio(float64(t.skippedTicks), ticks),
		"machine.alloc_fallback_calls":   n(t.fallbackCalls),
		"machine.alloc_fallback_s":       perPass(t.fallback),
		"machine.shootdowns":             n(t.shootdowns),
		"tlb.miss_per_kacc":              ratio(float64(c.tlbMisses), float64(c.tlbAccesses)) * 1000,
		"tlb.pwc_hit_ratio":              ratio(float64(c.pwcHits), float64(c.pwcHits+c.pwcMisses)),
		"tlb.walk_refs_per_access":       ratio(float64(c.walkRefs), float64(c.tlbAccesses)),
		"machine.guest_faults":           n(c.guestFaults),
		"machine.ept_faults":             n(c.eptFaults),
		"machine.ept_huge_fault_ratio":   ratio(float64(c.eptHugeFaults), float64(c.eptFaults)),
		"policy.promotions":              n(c.promotions),
		"policy.promotion_success_ratio": ratio(float64(c.promotions), float64(c.promotions+c.failedPromotions)),
		"machine.migrated_pages":         n(c.migratedPages),
		"machine.compacted_regions":      n(c.compactedRegions),
		"swap.out_pages":                 n(c.swapOut),
		"swap.in_pages":                  n(c.swapIn),
		"balloon.pages":                  n(c.balloonPages),
		"fleet.new_s":                    perPass(t.fleetNew),
		"fleet.tick_s":                   perPass(t.fleetTickSum),
		"fleet.tick_ms_p50":              float64(quantile(t.fleetTicks, 0.5).Nanoseconds()) / 1e6,
		"fleet.tick_ms_p99":              float64(quantile(t.fleetTicks, 0.99).Nanoseconds()) / 1e6,
		"fleet.event_tick_ms_p50":        float64(quantile(t.fleetEvents, 0.5).Nanoseconds()) / 1e6,
		"fleet.quiet_tick_ms_p50":        float64(quantile(t.fleetQuiets, 0.5).Nanoseconds()) / 1e6,
		"fleet.placed":                   n(t.fleetPlaced),
		"fleet.rejected":                 n(t.fleetRejected),
		"fleet.migrations":               n(t.fleetMigrations),
		"fleet.migrated_pages":           n(t.fleetMigrated),
	}
}
