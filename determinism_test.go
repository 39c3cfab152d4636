package repro

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// determinismCases are the (system × workload) pairs locked by both the
// double-run test and the golden snapshot. They span the coordinated
// system, the guest-only baseline, and a host-side system, on three
// workloads with different access skews.
func determinismCases() []sim.Config {
	cases := []struct {
		system sim.System
		spec   workload.Spec
	}{
		{sim.Gemini, workload.Redis()},
		{sim.THP, workload.Canneal()},
		{sim.HawkEye, workload.Specjbb()},
	}
	cfgs := make([]sim.Config, 0, len(cases))
	for _, c := range cases {
		spec := c.spec
		spec.FootprintMB /= 4
		cfgs = append(cfgs, sim.Config{
			System:     c.system,
			Workload:   spec,
			Fragmented: true,
			Requests:   400,
			Seed:       42,
		})
	}
	return cfgs
}

// TestRunDeterminism locks the simulator's seed contract: two runs of
// the same configuration must agree on every Result field, bit for bit.
// Result is a flat struct of scalars, so DeepEqual is exact identity.
func TestRunDeterminism(t *testing.T) {
	for _, cfg := range determinismCases() {
		cfg := cfg
		name := fmt.Sprintf("%s/%s", cfg.System, cfg.Workload.Name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := sim.Run(cfg)
			second := sim.Run(cfg)
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed, different results:\n  first:  %+v\n  second: %+v", first, second)
			}
		})
	}
}

// colocatedDeterminismCases are the consolidation cells locked by the
// colocated double-run test and golden snapshot: the paper's headline
// pair under the coordinated system, and a store/PARSEC pair under the
// guest-only baseline.
func colocatedDeterminismCases() []sim.EngineConfig {
	cases := []struct {
		system sim.System
		a, b   workload.Spec
	}{
		{sim.Gemini, workload.Masstree(), workload.SPD()},
		{sim.THP, workload.Redis(), workload.Canneal()},
	}
	cfgs := make([]sim.EngineConfig, 0, len(cases))
	for _, c := range cases {
		a, b := c.a, c.b
		a.FootprintMB /= 4
		b.FootprintMB /= 4
		ec := sim.ColocatedPair(c.system, a, b, 42)
		ec.Fragmented = true
		ec.Requests = 400
		cfgs = append(cfgs, ec)
	}
	return cfgs
}

// TestColocatedDeterminism extends the seed contract to the two-VM
// path: two runs of the same consolidation pair must agree on both
// VMs' results, bit for bit.
func TestColocatedDeterminism(t *testing.T) {
	for _, ec := range colocatedDeterminismCases() {
		ec := ec
		name := fmt.Sprintf("%s/%s+%s", ec.VMs[0].System, ec.VMs[0].Workload.Name, ec.VMs[1].Workload.Name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			first := sim.NewEngine(ec).Run()
			second := sim.NewEngine(ec).Run()
			if !reflect.DeepEqual(first, second) {
				t.Errorf("same seed, different colocated results:\n  first:  %+v\n  second: %+v",
					first, second)
			}
		})
	}
}

// TestRunManyDeterminism locks the engine's per-VM seed-stream
// contract at N=4 with the cross-layer audit enabled: four
// heterogeneous VMs on one fragmented host must produce identical
// per-VM results across two runs, and no invariant audit may fire.
func TestRunManyDeterminism(t *testing.T) {
	specs := []workload.Spec{
		workload.Masstree(), workload.Specjbb(),
		workload.Canneal(), workload.Redis(),
	}
	vms := make([]sim.VMConfig, len(specs))
	for i, s := range specs {
		s.FootprintMB /= 4
		vms[i] = sim.VMConfig{System: sim.Gemini, Workload: s}
	}
	run := func() []sim.Result {
		return sim.NewEngine(sim.EngineConfig{
			VMs:        vms,
			Fragmented: true,
			Requests:   300,
			Seed:       42,
			Audit:      true,
		}).Run()
	}
	first := run()
	second := run()
	if len(first) != len(vms) {
		t.Fatalf("got %d results for %d VMs", len(first), len(vms))
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("same seed, different N-VM results:\n  first:  %+v\n  second: %+v", first, second)
	}
}

// legacyResult projects a Result onto the scalar fields the golden
// snapshots were generated from. The flight-recorder fields (Timeline,
// Events) are nil on untraced runs and deliberately excluded, keeping
// the golden files bit-for-bit stable as the recorder schema evolves.
func legacyResult(r sim.Result) interface{} {
	return struct {
		System              string
		Workload            string
		Throughput          float64
		MeanLatency         float64
		P99Latency          float64
		TLBMissesPerKAccess float64
		WalkCyclesPerAccess float64
		AlignedRate         float64
		GuestHuge           uint64
		HostHuge            uint64
		GuestFMFI           float64
		MigratedPages       uint64
		BackgroundCycles    uint64
		BucketReuseRate     float64
	}{
		r.System, r.Workload, r.Throughput, r.MeanLatency, r.P99Latency,
		r.TLBMissesPerKAccess, r.WalkCyclesPerAccess, r.AlignedRate,
		r.GuestHuge, r.HostHuge, r.GuestFMFI, r.MigratedPages,
		r.BackgroundCycles, r.BucketReuseRate,
	}
}

// TestGoldenColocatedSnapshot pins the exact numbers for the colocated
// determinism cells, the same way TestGoldenQuickSnapshot pins the
// single-VM path; regenerate with -update after an intended change.
func TestGoldenColocatedSnapshot(t *testing.T) {
	var b strings.Builder
	for _, ec := range colocatedDeterminismCases() {
		rs := sim.NewEngine(ec).Run()
		fmt.Fprintf(&b, "A %+v\nB %+v\n", legacyResult(rs[0]), legacyResult(rs[1]))
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden_colocated.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("colocated results drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intended, regenerate with -update.", got, want)
	}
}

// TestGoldenQuickSnapshot pins the exact quick-mode numbers for the
// determinism cases. Any change to allocation order, RNG consumption,
// or policy arithmetic shows up as a golden diff; regenerate with
//
//	go test -run TestGoldenQuickSnapshot -update .
//
// after confirming the behavior change is intended.
func TestGoldenQuickSnapshot(t *testing.T) {
	var b strings.Builder
	for _, cfg := range determinismCases() {
		r := sim.Run(cfg)
		fmt.Fprintf(&b, "%+v\n", legacyResult(r))
	}
	got := b.String()

	golden := filepath.Join("testdata", "golden_quick.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("quick-mode results drifted from golden snapshot.\n--- got ---\n%s--- want ---\n%s"+
			"If the change is intended, regenerate with -update.", got, want)
	}
}
