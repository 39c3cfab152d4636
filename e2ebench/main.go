// Command e2ebench is the repository's end-to-end benchmark. It runs
// one workload's fixed cell list through the library's production
// entry points (sim.RunMicro, sim.NewEngine(...).Run, fleet.New(...).Run)
// for a set time, checks every cell's simulated output, and prints the
// metrics as one JSON object on the last line of standard output.
//
//	e2ebench --workload coalesce --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 adds a traced run
// that replays each cell through the public layer calls and reports the
// per-layer metrics. --steadiness runs every workload twice in separate
// processes and prints each end-to-end metric's spread against its
// bound; --write-oracle regenerates the committed expected outputs.
// See README.md for the workloads and the metric map.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupProbes is how many child processes measure setup_s; the
// reported value is their median.
const setupProbes = 5

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	steadiness  bool
	setupProbe  bool
	writeOracle string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload to run (micro, coalesce, pressure, fleet)")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 15, "measurement time in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	fs.BoolVar(&o.steadiness, "steadiness", false, "run every workload twice in separate processes and print each metric's spread against its bound")
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "set up, print \"ready\" and exit (used to time setup_s)")
	fs.StringVar(&o.writeOracle, "write-oracle", "", "regenerate the committed expected outputs into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	pinProcs()
	var err error
	switch {
	case o.writeOracle != "":
		err = writeOracle(o.writeOracle)
	case o.steadiness:
		err = steadiness(o, stdout)
	case o.setupProbe:
		err = setupProbe(o, stdout)
	default:
		err = measure(o, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// pinProcs caps GOMAXPROCS at the machine's CPU count, so the
// simulator never runs more OS threads in parallel than there are
// CPUs. Every cell runs on the calling goroutine (fleets at
// Parallel: 1), so the benchmark measures the simulator, not the
// scheduler.
func pinProcs() int {
	n := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(n)
	return n
}

// header stamps the machine and build every number is tied to.
func header(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				commit = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		commit += dirty
	}
	fmt.Fprintf(w, "# e2ebench nproc=%d GOMAXPROCS=%d go=%s %s/%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// bench runs and checks one workload's cells.
type bench struct {
	w     workloadDef
	seed  int64
	cells []cell
	// want holds the committed expected fingerprints; nil when the seed
	// has none (the run says so, and relies on its other checks).
	want []string
	// prod holds the first production run's fingerprints, which later
	// passes and every traced replay must reproduce.
	prod []string

	attempted, failed int
	stderr            io.Writer
}

func newBench(o options, stderr io.Writer) (*bench, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	orc, err := loadOracle()
	if err != nil {
		return nil, err
	}
	cells := w.cells(o.seed)
	want, err := orc.expected(w.name, o.seed, cells)
	if err != nil {
		return nil, err
	}
	return &bench{w: w, seed: o.seed, cells: cells, want: want,
		prod: make([]string, len(cells)), stderr: stderr}, nil
}

// protect runs fn, turning a panic into an error.
func protect(fn func()) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	fn()
	return nil
}

// record checks one cell output. A production output must equal the
// committed expectation (or, for an unchecked seed, the first pass); a
// replayed output must equal the production run's.
func (b *bench) record(i int, replay bool, v any, err error) {
	b.attempted++
	fp := ""
	if err == nil {
		fp, err = fingerprint(v)
	}
	if err != nil {
		b.fail(i, err.Error())
		return
	}
	if replay {
		if fp != b.prod[i] {
			b.fail(i, "traced replay differs from production at "+diffField(fp, b.prod[i]))
		}
		return
	}
	if b.prod[i] == "" {
		b.prod[i] = fp
	}
	switch {
	case b.want != nil && fp != b.want[i]:
		b.fail(i, "output differs from the committed oracle at "+diffField(fp, b.want[i]))
	case fp != b.prod[i]:
		b.fail(i, "output differs from the first pass at "+diffField(fp, b.prod[i]))
	}
}

func (b *bench) fail(i int, msg string) {
	b.failed++
	fmt.Fprintf(b.stderr, "e2ebench: FAIL %s seed %d cell %s: %s\n", b.w.name, b.seed, b.cells[i].name, msg)
}

// heapAllocs reads the cumulative bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPU reads the cumulative GC CPU time.
func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// pass runs every cell once through production and returns its wall
// time, summed over the cell calls only. Each pass starts from a
// collected heap, so every pass starts the GC pacer from the same
// place instead of wherever the previous pass left it. A non-nil cal
// runs its calibration loops between cells.
func (b *bench) pass(cal *calibrator) time.Duration {
	runtime.GC()
	var wall time.Duration
	for i, c := range b.cells {
		var v any
		t0 := time.Now()
		err := protect(func() { v = c.run() })
		d := time.Since(t0)
		wall += d
		b.record(i, false, v, err)
		if cal != nil {
			cal.cellDone(d)
		}
	}
	return wall
}

// allocPass runs every cell once with the collector paused inside each
// cell and one collection between cells, and returns the heap bytes the
// cells allocated. Under timed passes the collector drains the
// walk-cache arena pool at timing-dependent points, and each drained
// 4 MiB arena is allocated again, so a timed pass's allocation varies
// by a fifth between runs. Here the pool starts empty and each cell
// finds the previous cell's arenas, so the count is exact. The pass
// runs on one P: a pooled object put on one P's private slot is
// invisible to a Get from another.
func (b *bench) allocPass() uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC() // a pooled object survives one collection; two drain the pool
	var alloc uint64
	for i, c := range b.cells {
		runtime.GC()
		var v any
		a0 := heapAllocs()
		err := protect(func() { v = c.run() })
		alloc += heapAllocs() - a0
		b.record(i, false, v, err)
	}
	runtime.GC()
	return alloc
}

// peakGCPercent is the GOGC setting of the peak pass: a collection
// every 10% of heap growth samples the live heap densely enough that
// its maximum lands within a few percent of the true peak.
const peakGCPercent = 10

// peakPass runs every cell once with frequent collections and returns
// the largest live heap any collection saw.
func (b *bench) peakPass() uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(peakGCPercent))
	runtime.GC()
	hw := newHeapWatch()
	for i, c := range b.cells {
		var v any
		err := protect(func() { v = c.run() })
		b.record(i, false, v, err)
	}
	hw.stopped.Store(true)
	return hw.peak.Load()
}

// tracedPass replays every cell with t timing the layer calls and
// checks each against production. Cell wall time outside every span
// accrues to t.other.
func (b *bench) tracedPass(t *tracer) time.Duration {
	runtime.GC()
	var wall time.Duration
	for i, c := range b.cells {
		var v any
		before := t.spanned()
		t0 := time.Now()
		err := protect(func() { v = c.traced(t) })
		d := time.Since(t0)
		wall += d
		t.other += d - (t.spanned() - before)
		b.record(i, true, v, err)
	}
	return wall
}

// setup runs the workload's last cell once, untimed: the
// cold cell that starts with an empty walk-cache arena pool and a cold
// heap.
func (b *bench) setup() {
	i := len(b.cells) - 1
	var v any
	err := protect(func() { v = b.cells[i].run() })
	b.record(i, false, v, err)
}

// within is a stopping rule for timed loops: run at least minPasses,
// then stop once one more median pass would overrun budget, counted
// from the rule's creation.
func within(budget time.Duration, minPasses int) func(ds []time.Duration) bool {
	start := time.Now()
	return func(ds []time.Duration) bool {
		return len(ds) < minPasses || time.Since(start)+median(ds) <= budget
	}
}

// passes repeats fn while next allows and returns the wall times.
func passes(next func([]time.Duration) bool, fn func() time.Duration) []time.Duration {
	var ds []time.Duration
	for next(ds) {
		ds = append(ds, fn())
	}
	return ds
}

func median(ds []time.Duration) time.Duration {
	return quantile(slices.Clone(ds), 0.5)
}

// heapWatch records the live heap after every GC cycle until stopped:
// a finalizer on a sentinel object runs once per cycle and re-arms
// itself.
type heapWatch struct {
	stopped atomic.Bool
	peak    atomic.Uint64
}

type gcSentinel struct {
	_ [4]uint64
	p *byte // pointerful, so the sentinel is not tiny-allocated
}

func newHeapWatch() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(new(gcSentinel), func(*gcSentinel) {
		if h.stopped.Load() {
			return
		}
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > h.peak.Load() {
			h.peak.Store(v)
		}
		h.arm()
	})
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// measure is the benchmark run: set up, time passes, verify, report.
func measure(o options, stdout, stderr io.Writer) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	header(stdout)
	t0 := time.Now()
	b, err := newBench(o, stderr)
	if err != nil {
		return err
	}
	b.setup()
	fmt.Fprintf(stdout, "# workload=%s seed=%d cells=%d in-process setup %.3fs\n",
		b.w.name, b.seed, len(b.cells), time.Since(t0).Seconds())
	if b.want == nil {
		fmt.Fprintf(stdout, "# oracle: seed %d unchecked (expectations are committed for seeds %d and %d); "+
			"checking pass-to-pass determinism and the audited replay instead\n", b.seed, defaultSeed, heldOutSeed)
	} else {
		fmt.Fprintf(stdout, "# oracle: seed %d checked against the committed expectation\n", b.seed)
	}
	budget := time.Duration(o.seconds * float64(time.Second))

	var vals map[string]float64
	var set []metric
	if o.trace == 0 {
		set = endToEnd
		vals, err = b.endToEnd(budget, o, stdout)
		if err != nil {
			return err
		}
	} else {
		set = perLayer
		vals = b.perLayer(budget, stdout)
	}
	// Verification: one audited replay of every cell, which must
	// reproduce production and keep every cross-layer invariant.
	b.tracedPass(&tracer{audit: true})
	if o.trace == 1 {
		vals["fail_ratio"] = ratio(float64(b.failed), float64(b.attempted))
	}
	fmt.Fprintf(stdout, "# cells attempted=%d failed=%d\n", b.attempted, b.failed)
	line, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   report(set, vals),
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// endToEnd times calibrated untraced passes, measures memory in two
// untimed passes, and probes setup_s.
func (b *bench) endToEnd(budget time.Duration, o options, stdout io.Writer) (map[string]float64, error) {
	var cal calibrator
	var ref []float64
	raw := passes(within(budget, 3), func() time.Duration {
		d := b.pass(&cal)
		ref = append(ref, cal.reference(d))
		return d
	})
	alloc := b.allocPass()
	peak := b.peakPass()
	setupRaw, setupRef, err := probeSetup(o)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# pass_s: %d passes, raw median %.4fs, calibrated median %.4fs; raw %v\n",
		len(raw), median(raw).Seconds(), medianFloat(ref), raw)
	fmt.Fprintf(stdout, "# setup_s: %d probes, raw median %.4fs, calibrated median %.4fs; raw %v\n",
		len(setupRaw), median(setupRaw).Seconds(), medianFloat(setupRef), setupRaw)
	fmt.Fprintf(stdout, "# calibration loop: %d runs, median %.4fs (reference %.4fs)\n",
		len(cal.loops), median(cal.loops).Seconds(), refLoopSeconds)
	return map[string]float64{
		"pass_s":       medianFloat(ref),
		"setup_s":      medianFloat(setupRef),
		"alloc_mb":     float64(alloc) / 1e6,
		"peak_heap_mb": float64(peak) / 1e6,
	}, nil
}

// perLayer splits the budget between untraced passes (the overhead
// baseline and GC CPU) and traced replay passes.
func (b *bench) perLayer(budget time.Duration, stdout io.Writer) map[string]float64 {
	gc0 := gcCPU()
	plain := passes(within(budget/2, 2), func() time.Duration { return b.pass(nil) })
	gcPerPass := (gcCPU() - gc0) / float64(len(plain))
	t := &tracer{}
	traced := passes(within(budget/2, 1), func() time.Duration { return b.tracedPass(t) })
	vals := layerValues(t, len(traced))
	vals["runtime.gc_cpu_s"] = gcPerPass
	// Spans are per-pass means, so the traced pass time is too: the
	// shares of trace.pass_s then sum to one.
	var sum time.Duration
	for _, d := range traced {
		sum += d
	}
	vals["trace.pass_s"] = sum.Seconds() / float64(len(traced))
	vals["trace.overhead_ratio"] = median(traced).Seconds() / median(plain).Seconds()
	fmt.Fprintf(stdout, "# %d untraced passes (median %.4fs), %d traced passes (median %.4fs)\n",
		len(plain), median(plain).Seconds(), len(traced), median(traced).Seconds())
	return vals
}

// setupProbe is the child side of setup_s: build the cells, run the
// cold cell, and report readiness on stdout.
func setupProbe(o options, stdout io.Writer) error {
	b, err := newBench(o, os.Stderr)
	if err != nil {
		return err
	}
	b.setup()
	if b.failed != 0 {
		return fmt.Errorf("setup probe: cold cell failed")
	}
	fmt.Fprintln(stdout, "ready")
	return nil
}

// probeSetup times setupProbes child processes, one after another,
// from just before each starts until it reports readiness: process
// start, runtime and package init, building the cells, and the cold
// cell. A calibration loop follows each probe and calibrates it. Every
// child is waited for.
func probeSetup(o options) ([]time.Duration, []float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	var raw []time.Duration
	var ref []float64
	for i := 0; i < setupProbes; i++ {
		d, err := probeOnce(exe, o)
		if err != nil {
			return nil, nil, err
		}
		var cal calibrator
		raw = append(raw, d)
		ref = append(ref, cal.reference(d))
	}
	return raw, ref, nil
}

func probeOnce(exe string, o options) (time.Duration, error) {
	cmd := exec.Command(exe, "--setup-probe", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("start setup probe: %w", err)
	}
	line, rerr := bufio.NewReader(pipe).ReadString('\n')
	d := time.Since(t0)
	_, _ = io.Copy(io.Discard, pipe) // drain so Wait cannot block on a full pipe
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("setup probe: %w", err)
	}
	if rerr != nil || strings.TrimSpace(line) != "ready" {
		return 0, fmt.Errorf("setup probe printed %q, want \"ready\"", line)
	}
	return d, nil
}
