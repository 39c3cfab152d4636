// Command geminisim runs one simulated experiment — a workload in a VM
// under a chosen page-management system — and prints its metrics.
//
// Usage:
//
//	geminisim [-system GEMINI] [-workload masstree] [-fragmented]
//	          [-reused] [-requests 4000] [-seed 1] [-all-systems]
//	          [-parallel N] [-vms N] [-trace FILE] [-series FILE]
//	          [-sample-every N] [-stream] [-progress]
//
// With -vms N > 1, N copies of the workload run as separate VMs
// consolidated on one host through the unified engine, and one row is
// printed per VM.
//
// With -trace FILE the structured event trace (promotions, demotions,
// splits, bookings, compaction passes, migrations, phase boundaries) is
// written as JSONL; with -series FILE the per-tick sample series (FMFI
// per order, huge coverage, TLB misses, booking and bucket state) is
// written as CSV, one row per VM plus one host row (vm=-1) per sampled
// tick. -sample-every sets the sampling stride in ticks.
//
// With -all-systems the systems run concurrently, up to -parallel at a
// time. Tracing composes with that: each system records into a private
// shard of the recorder and the shards are merged in system order
// before the files are written, so the output is byte-identical at any
// -parallel value.
//
// -stream writes the -trace/-series files incrementally during the run
// (a crash leaves a valid prefix; within recorder bounds the bytes
// match the batch files). -progress prints live systems-done/total
// lines with an ETA to stderr only, leaving stdout byte-identical.
package main

import (
	"flag"
	"fmt"
	"strings"

	"repro"
	"repro/cmd/internal/runflags"
	"repro/internal/jobs"
	"repro/internal/telemetry"
)

// systemNames renders the registered figure systems for the -system
// flag help, so the usage text tracks the registry.
func systemNames() string {
	names := make([]string, 0, len(repro.Systems()))
	for _, s := range repro.Systems() {
		names = append(names, s.String())
	}
	return strings.Join(names, ", ")
}

func main() {
	system := flag.String("system", "GEMINI", "system under test ("+systemNames()+")")
	wl := flag.String("workload", "masstree", "workload name from Table 2 (or 'micro')")
	fragmented := flag.Bool("fragmented", false, "pre-fragment guest and host memory")
	reused := flag.Bool("reused", false, "run in a reused VM (SVM predecessor first)")
	requests := flag.Int("requests", 4000, "measured requests")
	seed := flag.Int64("seed", 1, "random seed")
	allSystems := flag.Bool("all-systems", false, "run every system and compare")
	par := flag.Int("parallel", 1, "run up to N systems concurrently with -all-systems (composes with -trace/-series)")
	vms := flag.Int("vms", 1, "number of VMs running the workload, consolidated on one host")
	rf := runflags.Register(flag.CommandLine, "geminisim", false)
	flag.Parse()
	if *vms < 1 {
		runflags.Check(fmt.Errorf("-vms must be at least 1, got %d", *vms))
	}

	spec, err := repro.WorkloadByName(*wl)
	runflags.Check(err)
	systems := []repro.System{}
	if *allSystems {
		systems = repro.Systems()
	} else {
		s, err := repro.SystemByName(*system)
		runflags.Check(err)
		systems = append(systems, s)
	}
	base := repro.Config{Workload: spec, Fragmented: *fragmented, ReusedVM: *reused,
		Requests: *requests, Seed: *seed}
	for _, sys := range systems {
		// Every flag lands in the single-VM configuration, so this vets
		// the engine path too; the engine sizes its host to fit -vms.
		base.System = sys
		runflags.Check(base.Validate())
	}

	out, err := rf.Start(nil)
	runflags.Check(err)
	if out.Progress != nil {
		out.Progress.AddTotal(len(systems))
	}

	fmt.Printf("workload=%s footprint=%dMB fragmented=%v reused=%v requests=%d seed=%d vms=%d\n\n",
		spec.Name, spec.FootprintMB, *fragmented, *reused, *requests, *seed, *vms)
	fmt.Printf("%-22s %10s %10s %10s %9s %8s %7s %7s\n",
		"system", "thpt/Mcyc", "mean(cyc)", "p99(cyc)", "tlbm/kacc", "aligned", "guestH", "hostH")
	for _, rows := range runAll(systems, base, *vms, *par, out.Rec, out.Progress) {
		for i, r := range rows {
			label := r.System
			if *vms > 1 {
				label = fmt.Sprintf("%s vm%d", r.System, i)
			}
			fmt.Printf("%-22s %10.2f %10.0f %10.0f %9.1f %8.2f %7d %7d\n",
				label, r.Throughput, r.MeanLatency, r.P99Latency,
				r.TLBMissesPerKAccess, r.AlignedRate, r.GuestHuge, r.HostHuge)
		}
	}
	if rf.Trace != "" {
		fmt.Println() // set the trace summary off from the table
	}
	runflags.Check(out.Finish(nil))
}

// runAll runs every system, up to par at a time, and returns their
// result rows in system order. With a recorder attached, a single
// system records straight into it; several systems each record into a
// private shard keyed by their index, merged in system order after the
// last one finishes, so the trace is identical at any parallelism. A
// panicking system is re-raised with its name once the others finish;
// when several panic, the first in system order is reported.
func runAll(systems []repro.System, base repro.Config, vms, par int, rec *repro.TraceRecorder, prog *telemetry.Progress) [][]repro.Result {
	results := make([][]repro.Result, len(systems))
	recs := make([]*repro.TraceRecorder, len(systems))
	for i, sys := range systems {
		recs[i] = rec
		if rec != nil && len(systems) > 1 {
			recs[i] = rec.Shard(i, sys.String())
		}
	}
	name := func(i int) string { return systems[i].String() }
	jobs.ForEach(len(systems), par, name, func(i int) {
		cfg := base
		cfg.System, cfg.Trace = systems[i], recs[i]
		results[i] = runOne(cfg, vms)
		if prog != nil {
			gauges := ""
			if len(results[i]) > 0 {
				_, gauges = results[i][0].Progress()
			}
			prog.CellDone(name(i), gauges)
		}
	})
	if rec != nil && len(systems) > 1 {
		rec.MergeShards()
	}
	return results
}

// runOne runs cfg on a single VM through Run, or n consolidated
// copies of its workload through the unified engine.
func runOne(cfg repro.Config, n int) []repro.Result {
	if n == 1 {
		return []repro.Result{repro.Run(cfg)}
	}
	vms := make([]repro.VMConfig, n)
	for i := range vms {
		vms[i] = repro.VMConfig{System: cfg.System, Workload: cfg.Workload, ReusedVM: cfg.ReusedVM}
	}
	return repro.NewEngine(repro.EngineConfig{
		VMs:        vms,
		Fragmented: cfg.Fragmented,
		Requests:   cfg.Requests,
		Seed:       cfg.Seed,
		Trace:      cfg.Trace,
	}).Run()
}
