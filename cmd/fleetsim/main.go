// Command fleetsim runs the fleet-scale simulation: a cluster of
// simulated hosts under a deterministic VM arrival/departure stream,
// placed online by a 2D vector-bin-packing policy (first-fit, best-fit,
// frag-aware, or pressure-aware), with live migration rebalancing the
// cluster. See DESIGN.md §8.
//
// Usage:
//
//	fleetsim [-hosts 16] [-host-cpu 16] [-host-mem 1024]
//	         [-arrivals 200] [-mean-interarrival 4] [-mean-life 300]
//	         [-policy first-fit|best-fit|frag-aware|pressure-aware]
//	         [-system GEMINI]
//	         [-overcommit R] [-pressure-policy NAME]
//	         [-seed 1] [-requests-per-tick 4] [-drain 32]
//	         [-rebalance-every 32] [-rebalance-gap 0.25]
//	         [-audit] [-parallel N]
//	         [-trace FILE] [-series FILE] [-sample-every N] [-stream]
//	         [-progress] [-runstats] [-serve ADDR [-serve-linger D]]
//	         [-json FILE] [-validate-json FILE]
//
// Everything printed to stdout is deterministic for a seed (timings go
// to stderr), so two runs of the same command are byte-identical —
// CI's smoke job diffs them. With -json FILE the run is also written
// as a validated paperbench/v1 report (one fleet-wide cell plus one
// per host); -validate-json FILE checks an existing report and exits.
// With -trace/-series the per-host flight-recorder shards are merged
// in host order and written as JSONL events and CSV series; adding
// -stream writes both files incrementally during the run.
//
// With -overcommit R ≥ 1 every host schedules up to R × its physical
// memory and arms the memory-elasticity tier (DESIGN.md §10): hosts
// under pressure balloon and swap their resident VMs instead of
// rejecting placements; -pressure-policy selects the victim-selection
// policy (empty = the default LRU-by-heat). Pair with
// -policy pressure-aware to have placement steer new VMs away from
// hosts already paying swap costs.
//
// Live telemetry (stderr/HTTP only; stdout stays byte-identical):
// -progress prints throttled tick-level progress with the resident
// population and an ETA; -runstats profiles the run (wall time,
// fleet ticks/sec, allocations, peak heap) and embeds a "runstats"
// section in the -json report; -serve ADDR exposes /metrics
// (Prometheus text), /debug/vars, and /debug/pprof while the fleet
// runs (plus -serve-linger afterwards).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/cmd/internal/runflags"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

func main() {
	hosts := flag.Int("hosts", 16, "number of simulated hosts")
	hostCPU := flag.Int("host-cpu", 16, "vCPU capacity per host")
	hostMem := flag.Int("host-mem", 1024, "physical memory per host in MiB")
	arrivals := flag.Int("arrivals", 200, "VM arrivals over the stream")
	meanGap := flag.Float64("mean-interarrival", 4, "mean ticks between arrivals")
	meanLife := flag.Float64("mean-life", 300, "mean VM lifetime in ticks")
	policy := flag.String("policy", "first-fit", fmt.Sprintf("placement policy: %v", repro.FleetPolicies()))
	system := flag.String("system", "GEMINI", "page management system every VM runs")
	overcommit := flag.Float64("overcommit", 0, "memory overcommit ratio; ≥ 1 arms the elasticity tier (swap + balloons) and lets hosts schedule ratio × physical memory, 0 disables")
	pressurePolicy := flag.String("pressure-policy", "", "swap victim-selection policy for -overcommit (empty = lru-heat default)")
	seed := flag.Int64("seed", 1, "random seed")
	reqsPerTick := flag.Int("requests-per-tick", 4, "foreground requests per resident VM per tick")
	drain := flag.Int("drain", 32, "ticks to keep stepping after the last arrival")
	rebalanceEvery := flag.Int("rebalance-every", 32, "ticks between migration triggers (negative = off)")
	rebalanceGap := flag.Float64("rebalance-gap", 0.25, "max-min RAM utilisation gap that triggers a migration")
	auditRuns := flag.Bool("audit", false, "run the fleet and per-host invariant audits (slower; fails loudly on corruption)")
	parallel := flag.Int("parallel", 0, "hosts stepped concurrently per tick (0 = GOMAXPROCS); results are identical at any value")
	rf := runflags.Register(flag.CommandLine, "fleetsim", true)
	flag.Parse()

	if rf.ValidateJSON != "" {
		runflags.Check(rf.ValidateReport())
		return
	}

	sys, err := sim.SystemByName(*system)
	runflags.Check(err)
	par := *parallel
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	cfg := repro.FleetConfig{
		Hosts:          *hosts,
		HostCPU:        *hostCPU,
		HostMemMB:      *hostMem,
		System:         sys,
		Policy:         *policy,
		Overcommit:     *overcommit,
		PressurePolicy: *pressurePolicy,
		Stream: repro.FleetStreamConfig{
			Arrivals:         *arrivals,
			MeanInterarrival: *meanGap,
			MeanLifetime:     *meanLife,
		},
		RequestsPerVMTick: *reqsPerTick,
		DrainTicks:        *drain,
		RebalanceEvery:    *rebalanceEvery,
		RebalanceGap:      *rebalanceGap,
		Audit:             *auditRuns,
		Parallel:          par,
		Seed:              *seed,
	}

	// Telemetry is fed by the fleet's OnTick hook: tick-level progress
	// plus the fleet gauges the -serve endpoint exports.
	var residentG, placedG, rejectedG, migrationsG *telemetry.Gauge
	out, err := rf.Start(func(r *runflags.Run) {
		r.Metrics.GaugeFunc("fleetsim_ticks_done", func() float64 { return float64(r.Progress.Ticks()) })
		residentG = r.Metrics.Gauge("fleetsim_resident_vms")
		placedG = r.Metrics.Gauge("fleetsim_placed")
		rejectedG = r.Metrics.Gauge("fleetsim_rejected")
		migrationsG = r.Metrics.Gauge("fleetsim_migrations")
	})
	runflags.Check(err)
	cfg.Trace = out.Rec
	if prog := out.Progress; prog != nil {
		cfg.OnTick = func(ti repro.FleetTickInfo) {
			if residentG != nil {
				residentG.Set(float64(ti.Resident))
				placedG.Set(float64(ti.Placed))
				rejectedG.Set(float64(ti.Rejected))
				migrationsG.Set(float64(ti.Migrations))
			}
			prog.Tick(ti.Tick, ti.Horizon, fmt.Sprintf(
				"resident=%d placed=%d rejected=%d migrations=%d",
				ti.Resident, ti.Placed, ti.Rejected, ti.Migrations))
		}
	}

	// Stamp the output with its generating command so captured reports
	// record how to regenerate them. -parallel and -audit are omitted:
	// neither changes a byte of the result. The overcommit knobs are
	// stamped only when set, so pre-elasticity captures stay identical.
	elastic := ""
	if *overcommit != 0 {
		elastic = fmt.Sprintf(" -overcommit %g", *overcommit)
		if *pressurePolicy != "" {
			elastic += fmt.Sprintf(" -pressure-policy %s", *pressurePolicy)
		}
	}
	fmt.Printf("# generated by: go run ./cmd/fleetsim -hosts %d -host-cpu %d -host-mem %d"+
		" -arrivals %d -mean-interarrival %g -mean-life %g -policy %s -system %s%s -seed %d\n\n",
		*hosts, *hostCPU, *hostMem, *arrivals, *meanGap, *meanLife, *policy, *system, elastic, *seed)

	t0 := time.Now()
	var cell *telemetry.Cell
	if out.Stats != nil {
		cell = out.Stats.StartCell(fmt.Sprintf("fleet %s × %s", *policy, *system))
	}
	res, err := repro.RunFleet(cfg)
	runflags.Check(err)
	if cell != nil {
		cell.Done(res.Ticks)
	}
	fmt.Fprintf(os.Stderr, "[fleet took %.1fs]\n", time.Since(t0).Seconds())
	fmt.Print(res.Format())

	report := repro.NewBenchReport(repro.Options{Seed: *seed})
	report.Add("fleet", repro.FleetCells(res))
	runflags.Check(out.Finish(report))
}
