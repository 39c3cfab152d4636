package hotbench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// BenchmarkHotpath runs the per-layer suite as ordinary sub-benchmarks:
//
//	go test -run '^$' -bench Hotpath -count 10 ./internal/hotbench
//
// The same cases back paperbench -bench-export, so numbers gathered
// either way are comparable by name.
func BenchmarkHotpath(b *testing.B) {
	for _, c := range Suite() {
		b.Run(c.Name, c.Bench)
	}
}

// BenchmarkAccessSteadyState is the named benchmark the hot-path code
// comments point at: the full cached access path, required to run at
// 0 allocs/op.
func BenchmarkAccessSteadyState(b *testing.B) {
	ByName("AccessSteadyState").Bench(b)
}

// TestAccessSteadyStateZeroAllocs pins the hot path's allocation-free
// invariant (DESIGN.md §7): once a workload reaches steady state,
// accesses — walk-cache hits, occasional conflict-miss refills, TLB
// bookkeeping, heat updates — allocate nothing. Guarded here with
// AllocsPerRun so any future map lookup, interface conversion, or
// slice growth on the hot path fails fast, not just slows benchmarks.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	_, _, w := steadyVM(16)
	// One settle pass so AllocsPerRun's own warm-up iteration cannot
	// hit a lingering cold page.
	for i := 0; i < 2000; i++ {
		w.StepOne()
	}
	if n := testing.AllocsPerRun(5000, func() { w.StepOne() }); n != 0 {
		t.Fatalf("steady-state access allocated %v allocs/run, want 0", n)
	}
	// The batched path shares the invariant: a whole StepN batch —
	// page draws into the preallocated buffers, one AccessN pass,
	// churn bookkeeping — allocates nothing in steady state.
	if n := testing.AllocsPerRun(500, func() { w.StepN(16, nil) }); n != 0 {
		t.Fatalf("steady-state StepN batch allocated %v allocs/run, want 0", n)
	}
}

// TestAccessSteadyStateZeroAllocsHugeRegion extends the pin to the
// walk cache's region entries: accesses to a region mapped huge at
// both layers allocate nothing, in steady state and across a demote,
// re-collapse and refill of the region.
func TestAccessSteadyStateZeroAllocsHugeRegion(t *testing.T) {
	vm, gvas := hugeRefillVM()
	if n := testing.AllocsPerRun(100, func() { vm.AccessN(gvas) }); n != 0 {
		t.Fatalf("region-entry hits allocated %v allocs/run, want 0", n)
	}
	hugeRefill(vm, gvas)
	if n := testing.AllocsPerRun(100, func() { hugeRefill(vm, gvas) }); n != 0 {
		t.Fatalf("region refill allocated %v allocs/run, want 0", n)
	}
}

// TestAccessSteadyStateZeroAllocsOneLayerHuge extends the pin to
// regions huge at one layer only: cached accesses over a guest-huge
// region backed by EPT base pages and a guest-base region backed by a
// huge EPT page allocate nothing.
func TestAccessSteadyStateZeroAllocsOneLayerHuge(t *testing.T) {
	vm, gvas := oneLayerHugeVM()
	for i, want := range [2][2]mem.PageSizeKind{{mem.Huge, mem.Base}, {mem.Base, mem.Huge}} {
		gfn, gKind, _ := vm.Guest.Table.Lookup(gvas[i*mem.PagesPerHuge])
		if _, hKind, _ := vm.EPT.Table.Lookup(gfn * mem.PageSize); gKind != want[0] || hKind != want[1] {
			t.Fatalf("setup: region %d maps %v over %v, want %v over %v", i, gKind, hKind, want[0], want[1])
		}
	}
	if n := testing.AllocsPerRun(100, func() { vm.AccessN(gvas) }); n != 0 {
		t.Fatalf("one-layer-huge hits allocated %v allocs/run, want 0", n)
	}
}

// TestDemoteCollapseCycleZeroAllocs pins the page table's leaf reuse
// (DESIGN.md §7.6): once a region has been split and collapsed, every
// later split takes the leaf the collapse let go of, so pressure's
// demote and re-collapse churn allocates nothing.
func TestDemoteCollapseCycleZeroAllocs(t *testing.T) {
	vm, va := demoteCollapseVM()
	if n := testing.AllocsPerRun(100, func() { demoteCollapse(vm, va) }); n != 0 {
		t.Fatalf("demote and re-collapse allocated %v allocs/run, want 0", n)
	}
}

// TestAccessSteadyStateZeroAllocsStreaming extends the zero-alloc pin
// to a traced, streaming run: with the flight recorder attached and a
// live streaming sink, steady-state accesses still allocate nothing.
// Recorder pushes happen on policy actions and tick sampling, never
// per access, and streaming must not change that — so attaching
// telemetry cannot slow the hot path.
func TestAccessSteadyStateZeroAllocsStreaming(t *testing.T) {
	_, vm, w := steadyVM(16)
	rec := trace.NewRecorder(trace.Config{})
	if err := rec.StreamTo(io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	vm.Guest.Trace = rec.Handle(0, "guest")
	vm.EPT.Trace = rec.Handle(0, "ept")
	for i := 0; i < 2000; i++ {
		w.StepOne()
	}
	if n := testing.AllocsPerRun(5000, func() { w.StepOne() }); n != 0 {
		t.Fatalf("traced steady-state access allocated %v allocs/run, want 0", n)
	}
}

// TestReportRoundTrip locks the BENCH_hotpath.json wire format: a
// report survives encode/decode and renders benchstat-compatible
// lines.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		Schema: ReportSchema, GoVersion: "goX", GOARCH: "arch", Count: 2,
		Benchmarks: []Result{{
			Name: "TLBLookup",
			Samples: []Sample{
				{Iterations: 100, NsPerOp: 10.5, BytesPerOp: 0, AllocsPerOp: 0},
				{Iterations: 120, NsPerOp: 11.5},
			},
		}},
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks[0].MedianNs() != 11.0 {
		t.Fatalf("median = %v, want 11.0", got.Benchmarks[0].MedianNs())
	}
	var txt bytes.Buffer
	if err := got.WriteGoBench(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "BenchmarkHotpath/TLBLookup 100 10.50 ns/op 0 B/op 0 allocs/op") {
		t.Fatalf("bad benchstat rendering:\n%s", txt.String())
	}
}

// TestCompareGates locks the CI gate semantics: >tol time regressions
// and any alloc increase fail; improvements and within-tolerance
// noise pass; a dropped benchmark fails.
func TestCompareGates(t *testing.T) {
	mk := func(name string, ns float64, allocs int64) Result {
		return Result{Name: name, Samples: []Sample{{Iterations: 1, NsPerOp: ns, AllocsPerOp: allocs}}}
	}
	base := &Report{Schema: ReportSchema, Benchmarks: []Result{
		mk("A", 100, 0), mk("B", 100, 5), mk("C", 100, 0),
	}}
	cur := &Report{Schema: ReportSchema, Benchmarks: []Result{
		mk("A", 109, 0), // +9%: within 10% tolerance
		mk("B", 90, 6),  // faster but one more alloc: fails
		// C dropped: fails
		mk("D", 100, 0), // not in the baseline: fails
	}}
	errs := Compare(base, cur, 0.10)
	if len(errs) != 3 {
		t.Fatalf("got %d violations, want 3: %v", len(errs), errs)
	}
	for _, err := range errs {
		s := err.Error()
		if !strings.Contains(s, "B:") && !strings.Contains(s, "C:") && !strings.Contains(s, "D:") {
			t.Fatalf("unexpected violation: %v", err)
		}
	}
	if errs := Compare(base, base, 0.10); len(errs) != 0 {
		t.Fatalf("self-compare must pass, got %v", errs)
	}
}
