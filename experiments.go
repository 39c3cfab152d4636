package repro

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/jobs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options tunes experiment scale. The zero value reproduces the full
// evaluation; Quick shrinks footprints and request counts for smoke
// runs and benchmarks. Every run ticks with event-driven fast-forward;
// the dense reference loop it is byte-identical to is not an option
// here (tests select it through sim.EngineConfig.DisableFastForward).
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// Requests overrides the per-run measured request count.
	Requests int
	// Workloads filters by name; nil selects the paper's set.
	Workloads []string
	// Quick runs a reduced-scale version (half footprints, fewer
	// requests): same shapes, minutes faster.
	Quick bool
	// Parallel bounds concurrent runs (default: GOMAXPROCS).
	Parallel int
	// Audit enables the cross-layer invariant audit in every run
	// (sim.Config.Audit): periodic full audits plus one at completion,
	// panicking with a report on the first violation.
	Audit bool
	// Trace, when non-nil, attaches the flight recorder to every run
	// of the experiment. Tracing composes with Parallel: each grid
	// cell records into a private shard of this recorder
	// (Recorder.Shard, keyed by grid index), and after the grid
	// finishes the shards are merged into the recorder in grid order,
	// so the recorder's merged event stream and sample series are
	// byte-identical at any parallelism. Each cell's Result carries
	// only that cell's own Timeline/Events.
	Trace *trace.Recorder
	// Stats, when non-nil, collects run-stats telemetry: each grid cell
	// is bracketed by a telemetry.Cell (wall time, simulated ticks,
	// allocation deltas). Collection happens at cell boundaries only, so
	// it never perturbs simulated state or traced output.
	Stats *telemetry.Collector
	// Progress, when non-nil, receives live completion updates: the grid
	// registers its cell count up front and reports each cell as it
	// finishes with its headline gauges. Progress writes to stderr (or
	// counts silently with a nil writer), never stdout.
	Progress *telemetry.Progress
}

// Validate reports whether the options are usable. Experiment
// functions panic on invalid options; callers wanting an error should
// Validate first.
func (o Options) Validate() error {
	if o.Seed < 0 {
		return fmt.Errorf("repro: negative seed %d", o.Seed)
	}
	if o.Requests < 0 {
		return fmt.Errorf("repro: negative request count %d", o.Requests)
	}
	if o.Parallel < 0 {
		return fmt.Errorf("repro: negative parallelism %d", o.Parallel)
	}
	for _, name := range o.Workloads {
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	return nil
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) requests() int {
	if o.Requests != 0 {
		return o.Requests
	}
	if o.Quick {
		return 1500
	}
	return 4000
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// quickSpec applies the Quick footprint scaling to one workload spec:
// footprints above 32 MB halve, smaller ones are left alone. Every
// figure routes its scaling through here — single-VM grids, the
// consolidation pairs, and ManyVMs — so Quick means the same thing
// everywhere.
func (o Options) quickSpec(s workload.Spec) workload.Spec {
	if o.Quick && s.FootprintMB > 32 {
		s.FootprintMB /= 2
	}
	return s
}

// specs resolves the workload selection, applying Quick scaling.
func (o Options) specs(defaults []workload.Spec) []workload.Spec {
	sel := defaults
	if len(o.Workloads) > 0 {
		sel = nil
		for _, name := range o.Workloads {
			s, err := workload.ByName(name)
			if err != nil {
				panic(err)
			}
			sel = append(sel, s)
		}
	}
	scaled := make([]workload.Spec, len(sel))
	for i, s := range sel {
		scaled[i] = o.quickSpec(s)
	}
	return scaled
}

// tlbSensitiveSpecs returns Table 2 minus the non-TLB-sensitive pair,
// i.e. the 16 workloads of the clean-slate and reused-VM figures.
func tlbSensitiveSpecs() []workload.Spec {
	var out []workload.Spec
	for _, s := range workload.Table2() {
		if s.TLBSensitive {
			out = append(out, s)
		}
	}
	return out
}

// Setting names one evaluation setting of the paper: the memory state
// and VM history every cell of a figure shares.
type Setting struct {
	// Name labels the setting in job identities.
	Name string
	// Fragmented pre-fragments memory before the run (§6.1).
	Fragmented bool
	// ReusedVM runs the SVM predecessor to completion first (§6.3).
	ReusedVM bool
}

// gridJob identifies one cell of the experiment grid.
type gridJob[U any] struct {
	Unit    U
	System  System
	Setting Setting
	// Trace is the cell's private recorder shard (nil when the grid is
	// untraced). Each cell records into its own shard so traced cells
	// may run concurrently; runGrid merges the shards in grid order
	// after the barrier.
	Trace *trace.Recorder
}

// runGrid is the single job grid every figure runs on: one cell per
// (setting × unit × system), executed with bounded parallelism in
// deterministic grid order (settings outermost, then units, then
// systems). The unit dimension is generic — a workload for the
// single-VM figures, a workload pair for consolidation, a VM count for
// N-VM smokes. A panicking cell is re-raised with its grid identity.
// When the grid is traced, every cell gets a private shard of
// o.Trace tagged with its grid index, and the shards are merged into
// o.Trace in grid order once all cells finish — so the recorder's
// contents are independent of o.Parallel.
func runGrid[U any, R gridRow](o Options, units []U, systems []System, settings []Setting,
	name func(U) string, run func(gridJob[U]) R) []R {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	var cells []gridJob[U]
	for _, st := range settings {
		for _, u := range units {
			for _, sys := range systems {
				cells = append(cells, gridJob[U]{Unit: u, System: sys, Setting: st})
			}
		}
	}
	describe := func(i int) string {
		j := cells[i]
		return fmt.Sprintf("%s × %s × %s", name(j.Unit), j.System, j.Setting.Name)
	}
	if o.Trace != nil {
		for i := range cells {
			cells[i].Trace = o.Trace.Shard(i, describe(i))
		}
	}
	if o.Progress != nil {
		o.Progress.AddTotal(len(cells))
	}
	out := make([]R, len(cells))
	jobs.ForEach(len(cells), o.parallel(), describe, func(i int) {
		var cell *telemetry.Cell
		if o.Stats != nil {
			cell = o.Stats.StartCell(describe(i))
		}
		out[i] = run(cells[i])
		ticks, gauges := out[i].Progress()
		if cell != nil {
			cell.Done(ticks)
		}
		if o.Progress != nil {
			o.Progress.CellDone(describe(i), gauges)
		}
	})
	if o.Trace != nil {
		o.Trace.MergeShards()
	}
	return out
}

// gridRow is a grid cell's result as run-stats and the progress line
// read it: Progress returns the simulated ticks and the progress
// line's gauges, both zero for a row that holds no run.
type gridRow interface {
	Progress() (ticks uint64, gauges string)
}

// Progress reports the first VM's run.
func (r ColocatedRow) Progress() (uint64, string) { return r.A.Progress() }

// Progress reports the first VM's run.
func (r ManyVMRow) Progress() (uint64, string) {
	if len(r.Results) == 0 {
		return 0, ""
	}
	return r.Results[0].Progress()
}

// Progress reports the first VM's run and the pages every VM swapped
// out or gave up to its balloon.
func (r PressureRow) Progress() (uint64, string) {
	if len(r.Results) == 0 {
		return 0, ""
	}
	var swapped, balloon uint64
	for _, res := range r.Results {
		swapped += res.SwappedPages
		balloon += res.BalloonPages
	}
	ticks, gauges := r.Results[0].Progress()
	return ticks, gauges + fmt.Sprintf(" swapped=%d balloon=%d", swapped, balloon)
}

// cellConfig builds the single-VM sim.Config for one grid cell.
func cellConfig(o Options, j gridJob[workload.Spec]) Config {
	return Config{
		System: j.System, Workload: j.Unit,
		Fragmented: j.Setting.Fragmented, ReusedVM: j.Setting.ReusedVM,
		Requests: o.requests(), Seed: o.seed(), Audit: o.Audit,
		Trace: j.Trace,
	}
}

// specName labels a workload unit in grid identities.
func specName(s workload.Spec) string { return s.Name }

// runCells is the common single-VM grid body: every (workload × system
// × setting) cell becomes one sim.Run.
func runCells(o Options, specs []workload.Spec, systems []System, settings []Setting) []Result {
	return runGrid(o, specs, systems, settings, specName,
		func(j gridJob[workload.Spec]) Result {
			return sim.Run(cellConfig(o, j))
		})
}

// Figure2 regenerates the motivation micro-benchmark: random access
// throughput across data-set sizes for the four page-size
// configurations.
func Figure2(o Options) []MicroResult {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	sizes := []int{4, 8, 16, 32, 64, 128, 256}
	if o.Quick {
		sizes = []int{4, 32, 128}
	}
	configs := []struct{ g, h bool }{
		{false, false}, // Host-B-VM-B
		{true, false},  // Host-B-VM-H (guest huge, host base)
		{false, true},  // Host-H-VM-B
		{true, true},   // Host-H-VM-H
	}
	out := make([]MicroResult, len(sizes)*len(configs))
	describe := func(i int) string {
		c := configs[i%len(configs)]
		return fmt.Sprintf("micro %dMB × guestHuge=%v hostHuge=%v",
			sizes[i/len(configs)], c.g, c.h)
	}
	if o.Progress != nil {
		o.Progress.AddTotal(len(out))
	}
	jobs.ForEach(len(out), o.parallel(), describe, func(i int) {
		size := sizes[i/len(configs)]
		c := configs[i%len(configs)]
		var cell *telemetry.Cell
		if o.Stats != nil {
			cell = o.Stats.StartCell(describe(i))
		}
		out[i] = sim.RunMicro(sim.MicroConfig{
			GuestHuge: c.g, HostHuge: c.h, DatasetMB: size, Seed: o.seed(),
		})
		if cell != nil {
			cell.Done(0)
		}
		if o.Progress != nil {
			o.Progress.CellDone(describe(i), "")
		}
	})
	return out
}

// motivationSpecs are the four workloads of Figure 3 / Table 1.
func motivationSpecs() []workload.Spec {
	return []workload.Spec{
		workload.Canneal(), workload.Streamcluster(),
		workload.ImgDNN(), workload.Specjbb(),
	}
}

// Motivation regenerates Figure 3 and Table 1: the four motivation
// workloads across all eight systems under fragmentation.
func Motivation(o Options) []Result {
	return runCells(o, o.specs(motivationSpecs()), Systems(),
		[]Setting{{Name: "fragmented", Fragmented: true}})
}

// CleanSlateRow couples a clean-slate result with its memory state.
type CleanSlateRow struct {
	Fragmented bool
	Result
}

// CleanSlate regenerates Figures 8-11 and Table 3: every TLB-sensitive
// workload across all eight systems, with and without fragmentation,
// in a fresh VM.
func CleanSlate(o Options) []CleanSlateRow {
	settings := []Setting{
		{Name: "fragmented", Fragmented: true},
		{Name: "pristine"},
	}
	return runGrid(o, o.specs(tlbSensitiveSpecs()), Systems(), settings, specName,
		func(j gridJob[workload.Spec]) CleanSlateRow {
			return CleanSlateRow{
				Fragmented: j.Setting.Fragmented,
				Result:     sim.Run(cellConfig(o, j)),
			}
		})
}

// ReusedVM regenerates Figures 12-15 and Table 4: every TLB-sensitive
// workload across all eight systems in a VM that previously ran the
// SVM trainer, fragmented.
func ReusedVM(o Options) []Result {
	return runCells(o, o.specs(tlbSensitiveSpecs()), Systems(),
		[]Setting{{Name: "reused", Fragmented: true, ReusedVM: true}})
}

// Breakdown regenerates Figure 16: Gemini against its EMA/HB-only and
// bucket-only halves, in the reused-VM fragmented setting where both
// mechanisms contribute.
func Breakdown(o Options) []Result {
	systems := []System{Gemini, GeminiNoBucket, GeminiBucketOnly}
	return runCells(o, o.specs(tlbSensitiveSpecs()), systems,
		[]Setting{{Name: "reused", Fragmented: true, ReusedVM: true}})
}

// ColocatedRow holds one consolidation pair's per-VM results.
type ColocatedRow struct {
	A, B Result
}

// pairSpec is a consolidation grid unit: the two workloads sharing a
// host.
type pairSpec struct{ a, b workload.Spec }

// Colocated regenerates Figures 17 and 18: pairs of VMs consolidated
// on one host, including the non-TLB-sensitive pair (Shore, SP.D)
// that bounds Gemini's overhead.
func Colocated(o Options) map[string][]ColocatedRow {
	pairs := []pairSpec{
		{workload.Masstree(), workload.SPD()},
		{workload.Specjbb(), workload.Shore()},
		{workload.Canneal(), workload.Shore()},
		{workload.Redis(), workload.Memcached()},
	}
	if o.Quick {
		pairs = pairs[:2]
	}
	pairName := func(p pairSpec) string { return p.a.Name + "+" + p.b.Name }
	rows := runGrid(o, pairs, Systems(),
		[]Setting{{Name: "fragmented", Fragmented: true}}, pairName,
		func(j gridJob[pairSpec]) ColocatedRow {
			ec := sim.ColocatedPair(j.System, o.quickSpec(j.Unit.a), o.quickSpec(j.Unit.b), o.seed())
			ec.Fragmented = j.Setting.Fragmented
			ec.Requests = o.requests()
			ec.Audit = o.Audit
			ec.Trace = j.Trace
			rs := sim.NewEngine(ec).Run()
			return ColocatedRow{A: rs[0], B: rs[1]}
		})
	out := make(map[string][]ColocatedRow)
	i := 0
	for _, p := range pairs {
		key := pairName(p)
		for range Systems() {
			out[key] = append(out[key], rows[i])
			i++
		}
	}
	return out
}

// manyVMMix is the heterogeneous workload rotation ManyVMs assigns to
// VMs round-robin: stores, a JVM, and PARSEC kernels — the
// consolidation mix of §6.5 extended past two VMs.
func manyVMMix() []workload.Spec {
	return []workload.Spec{
		workload.Masstree(), workload.Specjbb(), workload.Canneal(),
		workload.Redis(), workload.Memcached(), workload.SPD(),
	}
}

// ManyVMRow reports one N-VM consolidation run: per-VM results under
// one system, in VM order.
type ManyVMRow struct {
	System  string
	Results []Result
}

// ManyVMs runs an N-VM consolidation sweep across the paper's eight
// systems: n heterogeneous workloads (round-robined from the
// consolidation mix) share one fragmented host via the unified
// engine. This is the >2-VM regime the two-VM figures cannot show.
func ManyVMs(o Options, n int) []ManyVMRow {
	if n < 1 {
		panic(fmt.Sprintf("repro: ManyVMs needs at least one VM, got %d", n))
	}
	mix := manyVMMix()
	return runGrid(o, []int{n}, Systems(),
		[]Setting{{Name: "fragmented", Fragmented: true}},
		func(n int) string { return fmt.Sprintf("%d-vm mix", n) },
		func(j gridJob[int]) ManyVMRow {
			vms := make([]sim.VMConfig, j.Unit)
			for i := range vms {
				vms[i] = sim.VMConfig{System: j.System, Workload: o.quickSpec(mix[i%len(mix)])}
			}
			rs := sim.NewEngine(sim.EngineConfig{
				VMs:        vms,
				Fragmented: j.Setting.Fragmented,
				Requests:   o.requests(),
				Seed:       o.seed(),
				Audit:      o.Audit,
				Trace:      j.Trace,
			}).Run()
			return ManyVMRow{System: j.System.String(), Results: rs}
		})
}

// PressureRatios are the overcommit ratios the pressure sweep runs:
// 1.0 (tier armed, admission unchanged — the control), 1.25 (moderate
// overcommit), and 1.5 (heavy).
func PressureRatios() []float64 { return []float64{1.0, 1.25, 1.5} }

// pressureSystems are the systems the pressure sweep compares: the
// Linux baseline, the paper's system, and the fine-grained extension —
// the three whose coalescing strategies react most differently to
// demotion-on-swap eating huge coverage.
func pressureSystems() []System { return []System{THP, Gemini, FHPM} }

// pressureMix is the 3-VM consolidation mix of the pressure sweep:
// two latency-sensitive stores and an in-memory index, all with large
// footprints so the overcommit ratio controls real memory pressure.
func pressureMix() []workload.Spec {
	return []workload.Spec{workload.Redis(), workload.Masstree(), workload.Memcached()}
}

// PressureRow reports one (system × overcommit ratio) pressure cell:
// per-VM results, in VM order, of a 3-VM host run with the elasticity
// tier armed.
type PressureRow struct {
	System     string
	Overcommit float64
	Results    []Result
}

// Pressure runs the overcommit sweep (DESIGN.md §10): the 3-VM
// pressure mix shares one host whose physical memory is the summed
// guest memory divided by the overcommit ratio, with the swap/reclaim
// tier and balloon drivers armed. Guests are sized snug to their
// workload footprints (+1/8 slack), so the ratio directly controls how
// much of the combined working set exceeds physical memory: at 1.0 the
// tier only polices EPT bloat, while 1.25 and 1.5 force sustained
// ballooning and swap — the regime where demotion-on-swap attacks the
// huge-page coverage each system built (the THP-vs-GEMINI-vs-FHPM
// comparison the paper never runs).
func Pressure(o Options) []PressureRow {
	mix := pressureMix()
	return runGrid(o, PressureRatios(), pressureSystems(),
		[]Setting{{Name: "overcommit"}},
		func(r float64) string { return fmt.Sprintf("overcommit %.2fx", r) },
		func(j gridJob[float64]) PressureRow {
			vms := make([]sim.VMConfig, len(mix))
			sumMB := 0
			for i, spec := range mix {
				spec = o.quickSpec(spec)
				guestMB := spec.FootprintMB + spec.FootprintMB/8
				vms[i] = sim.VMConfig{System: j.System, Workload: spec, GuestMemMB: guestMB}
				sumMB += guestMB
			}
			hostMB := int(math.Ceil(float64(sumMB) / j.Unit))
			rs := sim.NewEngine(sim.EngineConfig{
				VMs:        vms,
				HostMemMB:  hostMB,
				Overcommit: j.Unit,
				Requests:   o.requests(),
				Seed:       o.seed(),
				Audit:      o.Audit,
				Trace:      j.Trace,
			}).Run()
			return PressureRow{System: j.System.String(), Overcommit: j.Unit, Results: rs}
		})
}

// --- formatting helpers ---

// NormalizeThroughput returns per-workload throughputs normalized to
// the named baseline system. A missing baseline fails loudly instead
// of producing silently empty inner maps: the error names the
// baseline when no row carries it at all, and lists the workloads
// whose baseline throughput is absent or zero otherwise.
func NormalizeThroughput(rows []Result, baseline string) (map[string]map[string]float64, error) {
	base := map[string]float64{}
	baselineSeen := false
	for _, r := range rows {
		if r.System == baseline {
			baselineSeen = true
			base[r.Workload] = r.Throughput
		}
	}
	if !baselineSeen {
		return nil, fmt.Errorf("repro: baseline system %q absent from results", baseline)
	}
	out := map[string]map[string]float64{}
	bad := map[string]bool{}
	for _, r := range rows {
		b, ok := base[r.Workload]
		if !ok || b <= 0 {
			bad[r.Workload] = true
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string]float64{}
		}
		out[r.Workload][r.System] = r.Throughput / b
	}
	if len(bad) > 0 {
		names := make([]string, 0, len(bad))
		for w := range bad {
			names = append(names, w)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("repro: baseline %q throughput missing or zero for workloads %v",
			baseline, names)
	}
	return out, nil
}

// FormatTable renders rows as a fixed-width text table: one line per
// workload, one column per system, using the value extracted by get.
func FormatTable(title string, rows []Result, get func(Result) float64, format string) string {
	systems := []string{}
	seen := map[string]bool{}
	byWL := map[string]map[string]float64{}
	var wls []string
	for _, r := range rows {
		if !seen[r.System] {
			seen[r.System] = true
			systems = append(systems, r.System)
		}
		if byWL[r.Workload] == nil {
			byWL[r.Workload] = map[string]float64{}
			wls = append(wls, r.Workload)
		}
		byWL[r.Workload][r.System] = get(r)
	}
	sort.Strings(wls)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-14s", "workload")
	for _, s := range systems {
		fmt.Fprintf(&b, "%14s", s)
	}
	b.WriteByte('\n')
	for _, w := range wls {
		fmt.Fprintf(&b, "%-14s", w)
		for _, s := range systems {
			fmt.Fprintf(&b, "%14s", fmt.Sprintf(format, byWL[w][s]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// GeometricMean returns the geometric mean of vs (0 when empty or any
// value is non-positive).
func GeometricMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
