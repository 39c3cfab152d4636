package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// small returns one reduced cell per workload, cheap enough for a unit
// test but reaching every layer its workload exercises.
func small() map[string]cell {
	mc := sim.MicroConfig{GuestHuge: true, DatasetMB: 4, Accesses: 20000, Seed: 3}
	fc := fleetConfig(sim.Gemini, 3)
	fc.Stream.Arrivals = 8
	return map[string]cell{
		"micro": {
			name:   "micro",
			run:    func() any { return sim.RunMicro(mc) },
			traced: func(t *tracer) any { return replayMicro(mc, t) },
		},
		"coalesce": engineCell("coalesce", coalesceConfig(sim.Gemini, workload.Masstree(), 200, 3)),
		"pressure": engineCell("pressure", pressureConfig(sim.FHPM, 1.5, 200, 3)),
		"fleet":    fleetCell("fleet", fc),
	}
}

// TestReplayMatchesProduction is the replay guard on one small cell per
// workload: the traced run, audited, must reproduce the production
// output field for field.
func TestReplayMatchesProduction(t *testing.T) {
	for name, c := range small() {
		t.Run(name, func(t *testing.T) {
			want, err := fingerprint(c.run())
			if err != nil {
				t.Fatal(err)
			}
			tr := &tracer{audit: true}
			got, err := fingerprint(c.traced(tr))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("replay differs from production at %s", diffField(got, want))
			}
			if tr.spanned() <= 0 {
				t.Fatal("traced run recorded no spans")
			}
		})
	}
}

// TestReplayGuardNamesField checks that a replay differing from
// production fails its cell and names the cell and the field.
func TestReplayGuardNamesField(t *testing.T) {
	var log bytes.Buffer
	res := sim.Result{System: "GEMINI", Throughput: 1}
	c := cell{name: "GEMINI/masstree", run: func() any { return []sim.Result{res} }}
	b := &bench{w: workloadDef{name: "coalesce"}, cells: []cell{c}, prod: make([]string, 1), stderr: &log}
	b.record(0, false, c.run(), nil)
	res.Throughput = 2
	b.record(0, true, []sim.Result{res}, nil)
	if b.failed != 1 || b.attempted != 2 {
		t.Fatalf("failed=%d attempted=%d, want 1 of 2", b.failed, b.attempted)
	}
	for _, want := range []string{"GEMINI/masstree", "[0].Throughput", "got 2, want 1"} {
		if !strings.Contains(log.String(), want) {
			t.Errorf("failure report %q does not name %q", log.String(), want)
		}
	}
}

// TestCoalesceCellIsPaperbenchCell pins the coalesce configuration to
// the single-VM fragmented cell paperbench -quick runs through sim.Run.
func TestCoalesceCellIsPaperbenchCell(t *testing.T) {
	spec := quickSpec(workload.Redis())
	viaRun := sim.Run(sim.Config{System: sim.THP, Workload: spec, Fragmented: true, Requests: 200, Seed: 5})
	viaEngine := sim.NewEngine(coalesceConfig(sim.THP, workload.Redis(), 200, 5)).Run()[0]
	a, _ := fingerprint(viaRun)
	b, _ := fingerprint(viaEngine)
	if a != b {
		t.Fatalf("coalesce cell differs from sim.Run at %s", diffField(b, a))
	}
}

// TestFleetCellIsGoldenFleet pins the fleet configuration to the
// repository's reference fleet: with the golden's system, seed and
// audit it must print the committed golden report.
func TestFleetCellIsGoldenFleet(t *testing.T) {
	cfg := fleetConfig(sim.Gemini, 42)
	cfg.Audit = true
	res, err := fleet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../testdata/golden_fleet.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Format(); got != string(want) {
		t.Fatalf("fleet cell report differs from golden_fleet.txt:\n%s", got)
	}
}

// TestMetricsDeclared checks that BENCHMARK.json declares every metric
// the program prints, with the same unit, and nothing else, and the
// same workloads in the same order.
func TestMetricsDeclared(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	check := func(section string, declared map[string]string, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", section, len(declared), len(printed))
		}
		for _, m := range printed {
			if u, ok := declared[m.name]; !ok || u != m.unit {
				t.Errorf("%s: metric %s (%s) declared as %q in BENCHMARK.json", section, m.name, m.unit, u)
			}
		}
	}
	e2e := map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range bf.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// TestTracedResultLine runs the traced benchmark end to end on the
// smallest workload and checks the printed result line: exactly the
// four keys, every per-layer metric with its unit, and no failures.
func TestTracedResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "micro", "--seconds", "0.01", "--trace", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw) != 4 {
		t.Fatalf("result line has keys %v, want correct/attempted/failed/metrics", raw)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
		t.Fatalf("result %+v: %s", r, errOut.String())
	}
	if len(r.Metrics) != len(perLayer) {
		t.Fatalf("printed %d metrics, want %d", len(r.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if v, ok := r.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("metric %s printed as %+v, want unit %s", m.name, v, m.unit)
		}
	}
	if r.Metrics["workload.step_s"].Value <= 0 || r.Metrics["trace.overhead_ratio"].Value <= 0 {
		t.Errorf("traced micro run measured no step time or overhead: %+v", r.Metrics)
	}
	if !strings.HasPrefix(lines[0], "# e2ebench nproc=") {
		t.Errorf("output does not start with the machine stamp: %q", lines[0])
	}
}

// TestLoadPin checks the load shape: GOMAXPROCS never exceeds the CPU
// count and every fleet steps its hosts on the calling goroutine.
func TestLoadPin(t *testing.T) {
	if n := pinProcs(); n > runtime.NumCPU() || runtime.GOMAXPROCS(0) != n {
		t.Fatalf("GOMAXPROCS %d after pin, NumCPU %d", runtime.GOMAXPROCS(0), runtime.NumCPU())
	}
	for _, sys := range []sim.System{sim.Gemini, sim.THP, sim.FHPM} {
		if p := fleetConfig(sys, 1).Parallel; p != 1 {
			t.Errorf("%s fleet runs at Parallel %d, want 1", sys, p)
		}
	}
}

// TestAllocPassExact checks that the allocation pass counts the same
// bytes every time, whatever state a timed pass left the walk-cache
// arena pool in: alloc_mb is exact for a given seed.
func TestAllocPassExact(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled objects at random under -race")
	}
	cells := microCells(3)
	b := &bench{w: workloadDef{name: "micro"}, cells: cells, prod: make([]string, len(cells)), stderr: io.Discard}
	first := b.allocPass()
	for i := 0; i < 2; i++ {
		b.pass(nil)
		if got := b.allocPass(); got != first {
			t.Fatalf("allocation pass %d counted %d bytes, the first %d", i+2, got, first)
		}
	}
	if b.failed != 0 {
		t.Fatalf("%d cells failed", b.failed)
	}
}

// TestOracleCoversSeeds checks the committed oracle holds every cell of
// every workload for the default and held-out seeds, and that any other
// seed is reported unchecked rather than silently passing.
func TestOracleCoversSeeds(t *testing.T) {
	o, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		for _, w := range workloads {
			want, err := o.expected(w.name, seed, w.cells(seed))
			if err != nil || want == nil {
				t.Errorf("seed %d %s: expectations %v, err %v", seed, w.name, want, err)
			}
		}
	}
	if want, err := o.expected("micro", 12345, microCells(12345)); want != nil || err != nil {
		t.Errorf("uncommitted seed returned expectations %v, err %v", want, err)
	}
}
