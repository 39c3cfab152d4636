// Command paperbench regenerates every table and figure of the
// paper's evaluation as text tables: Figure 2 (micro-benchmark),
// Figure 3 + Table 1 (motivation), Figures 8-11 + Table 3 (clean-slate
// VM), Figures 12-15 + Table 4 (reused VM), Figure 16 (breakdown), and
// Figures 17-18 (collocated VMs).
//
// Usage:
//
//	paperbench [-exp all|fig2|motivation|cleanslate|reused|breakdown|colocated|manyvms|fleet|pressure]
//	           [-quick] [-seed 1] [-parallel N] [-audit] [-vms N]
//	           [-json FILE] [-validate-json FILE]
//	           [-trace FILE] [-series FILE] [-sample-every N] [-stream]
//	           [-progress] [-runstats] [-serve ADDR [-serve-linger D]]
//	           [-bench-export FILE [-bench-count N] [-bench-profile FILE]]
//	           [-bench-format FILE] [-bench-compare BASE,NEW [-bench-tolerance F]]
//
// With -json FILE every figure's grid is additionally written as a
// machine-readable paperbench/v1 JSON report (validated before
// writing); -validate-json FILE checks an existing report against the
// schema contract and exits. With -trace/-series the flight recorder is
// attached to every run and the structured event log (JSONL) and
// per-tick sample series (CSV) are written after the grids finish;
// -sample-every sets the tick stride. Tracing composes with -parallel:
// every grid cell records into a private shard of the recorder and the
// shards are merged in grid order, so the trace and series files are
// byte-identical at any parallelism. Adding -stream writes the trace
// files incrementally during the run instead of at the end (crash
// leaves a valid prefix); within recorder bounds the streamed bytes
// are identical to the batch files, and stdout is unchanged.
//
// Live telemetry (all stderr/HTTP only — stdout stays byte-identical):
// -progress prints throttled cells-done/total lines with an ETA and
// headline gauges; -runstats collects per-cell wall time, simulated
// ticks/sec, and allocation deltas, prints the table to stderr, and
// embeds a "runstats" section in the -json report; -serve ADDR exposes
// /metrics (Prometheus text), /debug/vars (expvar), and /debug/pprof
// on ADDR for the duration of the run (plus -serve-linger, for
// scraping after a short run finishes).
//
// The -bench-* modes run the hot-path microbenchmark suite (package
// internal/hotbench) instead of the experiments: -bench-export times
// every layer of the access pipeline -bench-count times and writes a
// machine-readable hotbench/v1 report (the committed baseline lives
// in BENCH_hotpath.json), -bench-format renders a report as Go
// benchmark text for benchstat, and -bench-compare exits non-zero
// when NEW regresses against BASE by more than -bench-tolerance in
// time or at all in allocations. See README "Profiling quickstart".
//
// The manyvms experiment consolidates -vms heterogeneous VMs on one
// fragmented host through the unified engine and compares per-VM
// results across all systems. The fleet experiment sweeps the cluster
// layer: every placement policy crossed with THP and GEMINI over the
// same churn stream (see DESIGN.md §8 and cmd/fleetsim). The pressure
// experiment arms the memory-elasticity tier (DESIGN.md §10) and
// sweeps overcommit ratios 1.0/1.25/1.5 over a 3-VM consolidation mix,
// comparing how THP, GEMINI, and FHPM degrade when host pressure
// forces ballooning and swap. All three are excluded from -exp all
// (they are extension studies, not paper figures); select them
// explicitly.
package main

import (
	"flag"
	"fmt"
	"sort"
	"time"

	"repro"
	"repro/cmd/internal/runflags"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig2, motivation, cleanslate, reused, breakdown, colocated, manyvms, fleet, pressure")
	quick := flag.Bool("quick", false, "reduced scale (half footprints, fewer requests)")
	seed := flag.Int64("seed", 1, "random seed")
	parallel := flag.Int("parallel", 0, "concurrent runs (0 = GOMAXPROCS)")
	auditRuns := flag.Bool("audit", false, "run the cross-layer invariant audit during every run (slower; fails loudly on corruption)")
	vms := flag.Int("vms", 4, "VM count for the manyvms experiment")
	rf := runflags.Register(flag.CommandLine, "paperbench", true)
	benchExportF := flag.String("bench-export", "", "run the hot-path benchmark suite and write a hotbench/v1 JSON report to FILE")
	benchCount := flag.Int("bench-count", 5, "samples per benchmark for -bench-export")
	benchProfile := flag.String("bench-profile", "", "write a CPU profile of the -bench-export run to FILE")
	benchFormatF := flag.String("bench-format", "", "render a hotbench/v1 JSON report as Go benchmark text (for benchstat) and exit")
	benchCompareF := flag.String("bench-compare", "", "compare two hotbench/v1 reports (BASE.json,NEW.json) and exit non-zero on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.10, "allowed fractional ns/op regression for -bench-compare")
	flag.Parse()

	switch {
	case rf.ValidateJSON != "":
		runflags.Check(rf.ValidateReport())
		return
	case *benchExportF != "":
		runflags.Check(benchExport(*benchExportF, *benchCount, *benchProfile))
		return
	case *benchFormatF != "":
		runflags.Check(benchFormat(*benchFormatF))
		return
	case *benchCompareF != "":
		runflags.Check(benchCompare(*benchCompareF, *benchTolerance))
		return
	}

	o := repro.Options{Seed: *seed, Quick: *quick, Parallel: *parallel, Audit: *auditRuns}
	runflags.Check(o.Validate())

	// Stamp the output with its own generating command, so captured
	// files (paperbench_output.txt) record how to regenerate them.
	// -parallel is omitted: results are byte-identical at any value.
	quickFlag := ""
	if *quick {
		quickFlag = " -quick"
	}
	fmt.Printf("# generated by: go run ./cmd/paperbench -exp %s -seed %d%s\n\n", *exp, *seed, quickFlag)

	out, err := rf.Start(func(r *runflags.Run) {
		r.Metrics.GaugeFunc("paperbench_cells_total", func() float64 { return float64(r.Progress.Total()) })
		r.Metrics.GaugeFunc("paperbench_cells_done", func() float64 { return float64(r.Progress.Done()) })
	})
	runflags.Check(err)
	o.Trace, o.Progress, o.Stats = out.Rec, out.Progress, out.Stats

	report := repro.NewBenchReport(o)
	ran := false
	run := func(name string, fn func() []repro.BenchCell) {
		// manyvms, fleet, and pressure are opt-in: extension studies,
		// not paper figures.
		optIn := name == "manyvms" || name == "fleet" || name == "pressure"
		if *exp != name && (*exp != "all" || optIn) {
			return
		}
		if o.Trace != nil {
			// Separate each experiment's runs in the shared event log.
			o.Trace.Mark(name)
		}
		t0 := time.Now()
		report.Add(name, fn())
		ran = true
		fmt.Printf("[%s took %.1fs]\n\n", name, time.Since(t0).Seconds())
	}

	run("fig2", func() []repro.BenchCell { return figure2(o) })
	run("motivation", func() []repro.BenchCell { return motivation(o) })
	run("cleanslate", func() []repro.BenchCell { return cleanSlate(o) })
	run("reused", func() []repro.BenchCell { return reused(o) })
	run("breakdown", func() []repro.BenchCell { return breakdown(o) })
	run("colocated", func() []repro.BenchCell { return colocated(o) })
	run("manyvms", func() []repro.BenchCell { return manyVMs(o, *vms) })
	run("fleet", func() []repro.BenchCell { return fleetSweep(o) })
	run("pressure", func() []repro.BenchCell { return pressureSweep(o) })
	if !ran {
		runflags.Check(fmt.Errorf("unknown experiment %q", *exp))
	}
	runflags.Check(out.Finish(report))
}

func figure2(o repro.Options) []repro.BenchCell {
	fmt.Println("=== Figure 2: micro-benchmark, random access across data-set sizes ===")
	fmt.Println("(throughput in accesses per million cycles; higher is better)")
	rows := repro.Figure2(o)
	byDS := map[int]map[string]repro.MicroResult{}
	var sizes []int
	cells := make([]repro.BenchCell, 0, len(rows))
	for _, r := range rows {
		if byDS[r.DatasetMB] == nil {
			byDS[r.DatasetMB] = map[string]repro.MicroResult{}
			sizes = append(sizes, r.DatasetMB)
		}
		byDS[r.DatasetMB][r.Label] = r
		cells = append(cells, repro.MicroCell(r))
	}
	labels := []string{"Host-B-VM-B", "Host-B-VM-H", "Host-H-VM-B", "Host-H-VM-H"}
	fmt.Printf("%-10s", "dataset")
	for _, l := range labels {
		fmt.Printf("%14s", l)
	}
	fmt.Println()
	for _, ds := range sizes {
		fmt.Printf("%-10s", fmt.Sprintf("%dMB", ds))
		for _, l := range labels {
			fmt.Printf("%14.1f", byDS[ds][l].Throughput)
		}
		fmt.Println()
	}
	return cells
}

// resultCells flattens a slice of Results into report cells with a
// shared setting label.
func resultCells(setting string, rows []repro.Result) []repro.BenchCell {
	cells := make([]repro.BenchCell, 0, len(rows))
	for _, r := range rows {
		cells = append(cells, repro.ResultCell(setting, 0, r))
	}
	return cells
}

func motivation(o repro.Options) []repro.BenchCell {
	rows := repro.Motivation(o)
	fmt.Println("=== Figure 3: motivation workloads, throughput normalized to Host-B-VM-B (fragmented) ===")
	printNormalized(rows)
	fmt.Println("=== Table 1: rates of well-aligned huge pages ===")
	fmt.Print(repro.FormatTable("", rows,
		func(r repro.Result) float64 { return r.AlignedRate * 100 }, "%.0f%%"))
	fmt.Println()
	return resultCells("fragmented", rows)
}

func cleanSlate(o repro.Options) []repro.BenchCell {
	all := repro.CleanSlate(o)
	var cells []repro.BenchCell
	for _, frag := range []bool{true, false} {
		var rows []repro.Result
		state := "fragmented"
		if !frag {
			state = "unfragmented"
		}
		for _, r := range all {
			if r.Fragmented == frag {
				rows = append(rows, r.Result)
			}
		}
		cells = append(cells, resultCells(state, rows)...)
		fmt.Printf("=== Figure 8 (%s): clean-slate throughput normalized to Host-B-VM-B ===\n", state)
		printNormalized(rows)
		if frag {
			fmt.Println("=== Figure 9/10: clean-slate mean and p99 latency (cycles; latency-reporting workloads) ===")
			fmt.Print(repro.FormatTable("mean latency", onlyLatency(rows),
				func(r repro.Result) float64 { return r.MeanLatency }, "%.0f"))
			fmt.Print(repro.FormatTable("p99 latency", onlyLatency(rows),
				func(r repro.Result) float64 { return r.P99Latency }, "%.0f"))
			fmt.Println("=== Figure 11: clean-slate TLB misses normalized to GEMINI ===")
			printTLBNormalized(rows)
			fmt.Println("=== Table 3: rates of well-aligned huge pages (fragmented) ===")
			fmt.Print(repro.FormatTable("", rows,
				func(r repro.Result) float64 { return r.AlignedRate * 100 }, "%.0f%%"))
		}
		fmt.Println()
	}
	return cells
}

func reused(o repro.Options) []repro.BenchCell {
	rows := repro.ReusedVM(o)
	fmt.Println("=== Figure 12: reused-VM throughput normalized to Host-B-VM-B ===")
	printNormalized(rows)
	fmt.Println("=== Figure 13/14: reused-VM mean and p99 latency (cycles) ===")
	fmt.Print(repro.FormatTable("mean latency", onlyLatency(rows),
		func(r repro.Result) float64 { return r.MeanLatency }, "%.0f"))
	fmt.Print(repro.FormatTable("p99 latency", onlyLatency(rows),
		func(r repro.Result) float64 { return r.P99Latency }, "%.0f"))
	fmt.Println("=== Figure 15: reused-VM TLB misses normalized to GEMINI ===")
	printTLBNormalized(rows)
	fmt.Println("=== Table 4: rates of well-aligned huge pages (reused VM) ===")
	fmt.Print(repro.FormatTable("", rows,
		func(r repro.Result) float64 { return r.AlignedRate * 100 }, "%.0f%%"))
	fmt.Println()
	return resultCells("reused", rows)
}

func breakdown(o repro.Options) []repro.BenchCell {
	rows := repro.Breakdown(o)
	fmt.Println("=== Figure 16: GEMINI breakdown (throughput, reused VM, fragmented) ===")
	fmt.Print(repro.FormatTable("absolute throughput per Mcycle", rows,
		func(r repro.Result) float64 { return r.Throughput }, "%.1f"))
	fmt.Println()
	return resultCells("reused+fragmented", rows)
}

func colocated(o repro.Options) []repro.BenchCell {
	byPair := repro.Colocated(o)
	fmt.Println("=== Figures 17/18: collocated VMs (per-VM throughput per Mcycle) ===")
	pairs := make([]string, 0, len(byPair))
	for pair := range byPair {
		pairs = append(pairs, pair)
	}
	sort.Strings(pairs)
	var cells []repro.BenchCell
	for _, pair := range pairs {
		rows := byPair[pair]
		fmt.Printf("--- pair %s ---\n", pair)
		fmt.Printf("%-22s %12s %12s %12s %12s\n", "system", "thptA", "thptB", "meanA", "meanB")
		for _, cr := range rows {
			fmt.Printf("%-22s %12.2f %12.2f %12.0f %12.0f\n",
				cr.A.System, cr.A.Throughput, cr.B.Throughput, cr.A.MeanLatency, cr.B.MeanLatency)
			cells = append(cells,
				repro.ResultCell(pair, 0, cr.A),
				repro.ResultCell(pair, 1, cr.B))
		}
	}
	fmt.Println()
	return cells
}

func manyVMs(o repro.Options, n int) []repro.BenchCell {
	fmt.Printf("=== Scaling study: %d consolidated VMs (per-VM throughput per Mcycle) ===\n", n)
	var cells []repro.BenchCell
	for _, row := range repro.ManyVMs(o, n) {
		fmt.Printf("--- %s ---\n", row.System)
		fmt.Printf("%-4s %-14s %12s %12s %9s %8s\n",
			"vm", "workload", "thpt/Mcyc", "mean(cyc)", "tlbm/kacc", "aligned")
		for i, r := range row.Results {
			fmt.Printf("%-4d %-14s %12.2f %12.0f %9.1f %8.2f\n",
				i, r.Workload, r.Throughput, r.MeanLatency,
				r.TLBMissesPerKAccess, r.AlignedRate)
			cells = append(cells, repro.ResultCell(fmt.Sprintf("%dvms", n), i, r))
		}
	}
	fmt.Println()
	return cells
}

func fleetSweep(o repro.Options) []repro.BenchCell {
	fmt.Println("=== Fleet sweep: placement policy × system under VM churn ===")
	rows := repro.FleetSweep(o)
	fmt.Print(repro.FormatFleetTable("(per-cell fleet totals; thpt in requests per Mcycle)", rows))
	fmt.Println()
	var cells []repro.BenchCell
	for _, r := range rows {
		cells = append(cells, repro.FleetCells(r)...)
	}
	return cells
}

func pressureSweep(o repro.Options) []repro.BenchCell {
	fmt.Println("=== Pressure sweep: overcommit ratio × system with the elasticity tier armed (DESIGN.md §10) ===")
	var cells []repro.BenchCell
	for _, row := range repro.Pressure(o) {
		fmt.Printf("--- %s @ %.2fx overcommit ---\n", row.System, row.Overcommit)
		fmt.Printf("%-4s %-14s %12s %12s %10s %10s %10s %8s\n",
			"vm", "workload", "thpt/Mcyc", "p99(cyc)", "swapped", "swapins", "balloon", "cov")
		for i, r := range row.Results {
			fmt.Printf("%-4d %-14s %12.2f %12.0f %10d %10d %10d %8.2f\n",
				i, r.Workload, r.Throughput, r.P99Latency,
				r.SwappedPages, r.SwappedInPages, r.BalloonPages, r.HugeCoverage)
		}
		cells = append(cells, repro.PressureCells(row)...)
	}
	fmt.Println()
	return cells
}

// printNormalized prints throughput normalized to Host-B-VM-B plus a
// geometric-mean row.
func printNormalized(rows []repro.Result) {
	norm, err := repro.NormalizeThroughput(rows, "Host-B-VM-B")
	// A grid without its baseline is a broken run, not a figure.
	runflags.Check(err)
	var flat []repro.Result
	for _, r := range rows {
		r2 := r
		r2.Throughput = norm[r.Workload][r.System]
		flat = append(flat, r2)
	}
	fmt.Print(repro.FormatTable("", flat,
		func(r repro.Result) float64 { return r.Throughput }, "%.2fx"))
	// Geomean per system.
	bySys := map[string][]float64{}
	var order []string
	for _, r := range flat {
		if _, ok := bySys[r.System]; !ok {
			order = append(order, r.System)
		}
		bySys[r.System] = append(bySys[r.System], r.Throughput)
	}
	fmt.Printf("%-14s", "geomean")
	for _, s := range order {
		fmt.Printf("%14s", fmt.Sprintf("%.2fx", repro.GeometricMean(bySys[s])))
	}
	fmt.Println()
}

// printTLBNormalized prints TLB misses normalized to GEMINI.
func printTLBNormalized(rows []repro.Result) {
	base := map[string]float64{}
	for _, r := range rows {
		if r.System == "GEMINI" {
			base[r.Workload] = r.TLBMissesPerKAccess
		}
	}
	var flat []repro.Result
	for _, r := range rows {
		r2 := r
		if b := base[r.Workload]; b > 0 {
			r2.TLBMissesPerKAccess = r.TLBMissesPerKAccess / b
		}
		flat = append(flat, r2)
	}
	fmt.Print(repro.FormatTable("", flat,
		func(r repro.Result) float64 { return r.TLBMissesPerKAccess }, "%.2fx"))
}

// onlyLatency filters to latency-reporting rows.
func onlyLatency(rows []repro.Result) []repro.Result {
	var out []repro.Result
	for _, r := range rows {
		if r.MeanLatency > 0 {
			out = append(out, r)
		}
	}
	return out
}
