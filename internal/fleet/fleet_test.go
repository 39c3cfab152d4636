package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/audit"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestGenerateStreamProperties checks the churn generator's structural
// contract: the stream is sorted (tick, then departs before arrives,
// then VM id), every arrival has exactly one departure strictly after
// it, and the stream is a pure function of its configuration.
func TestGenerateStreamProperties(t *testing.T) {
	cfg := StreamConfig{Arrivals: 50, Seed: 3}
	s := GenerateStream(cfg)
	if len(s) != 100 {
		t.Fatalf("stream has %d events, want 100", len(s))
	}
	for i := 1; i < len(s); i++ {
		a, b := s[i-1], s[i]
		if a.Tick > b.Tick ||
			(a.Tick == b.Tick && a.Kind > b.Kind) ||
			(a.Tick == b.Tick && a.Kind == b.Kind && a.VM > b.VM) {
			t.Fatalf("stream unsorted at %d: %+v then %+v", i, a, b)
		}
	}
	arrive := make(map[int]uint64)
	departs := make(map[int]int)
	for _, ev := range s {
		if ev.Tick < 1 {
			t.Fatalf("event at tick %d < 1", ev.Tick)
		}
		if ev.Kind == Arrive {
			arrive[ev.VM] = ev.Tick
		} else {
			departs[ev.VM]++
		}
	}
	for vm := 0; vm < cfg.Arrivals; vm++ {
		at, ok := arrive[vm]
		if !ok || departs[vm] != 1 {
			t.Fatalf("VM %d: arrivals=%v departs=%d", vm, ok, departs[vm])
		}
		for _, ev := range s {
			if ev.VM == vm && ev.Kind == Depart && ev.Tick <= at {
				t.Fatalf("VM %d departs at %d, arrived at %d", vm, ev.Tick, at)
			}
		}
	}
	if !reflect.DeepEqual(s, GenerateStream(cfg)) {
		t.Fatal("same configuration generated different streams")
	}
	cfg2 := cfg
	cfg2.Seed = 4
	if reflect.DeepEqual(s, GenerateStream(cfg2)) {
		t.Fatal("different seeds generated identical streams")
	}
}

// TestConfigValidate rejects the configurations the fleet cannot run.
func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Hosts: -1},
		{HostCPU: 1 << 13},
		{HostMemMB: 1 << 21},
		{Policy: "worst-fit"},
		{System: sim.System(99)},
		{RebalanceGap: 1.5},
		{DrainTicks: -1},
		{HostMemMB: 256}, // the default large flavor can never fit
		{Stream: StreamConfig{Arrivals: -3}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d (%+v) validated", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// residentFleet runs a small fleet whose VMs outlive the horizon, so
// the end state has live VMs to corrupt, and returns the still-warm
// Fleet for white-box audit mutation.
func residentFleet(t *testing.T) *Fleet {
	t.Helper()
	f, err := New(Config{
		Hosts:             2,
		HostCPU:           8,
		HostMemMB:         512,
		System:            sim.HostBVMB,
		Stream:            StreamConfig{Arrivals: 8, MeanInterarrival: 3, MeanLifetime: 5000},
		RequestsPerVMTick: 1,
		DrainTicks:        4,
		RebalanceEvery:    -1,
		Seed:              5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if res.ResidentVMs == 0 {
		t.Fatal("setup: no VMs survived to the horizon")
	}
	if vs := f.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean:\n%s", audit.Report(vs))
	}
	return f
}

// anyResident returns one live VM id.
func anyResident(t *testing.T, f *Fleet) int {
	t.Helper()
	for _, h := range f.hosts {
		if len(h.resident) > 0 {
			return h.resident[0]
		}
	}
	t.Fatal("no resident VM")
	return -1
}

// TestFleetAuditMutation corrupts the fleet's cross-layer bookkeeping
// piece by piece and asserts the fleet audit names each corruption.
func TestFleetAuditMutation(t *testing.T) {
	t.Run("migration-flow-drift", func(t *testing.T) {
		f := residentFleet(t)
		f.pagesIn[0] += 3 // pages arrived that no migration shipped
		vs := f.CheckInvariants()
		if !audit.Has(vs, "fleet-migration-conservation") {
			t.Fatalf("flow drift not caught:\n%s", audit.Report(vs))
		}
	})
	t.Run("resident-list-loses-vm", func(t *testing.T) {
		f := residentFleet(t)
		id := anyResident(t, f)
		h := f.hosts[f.vms[id].host]
		h.resident = removeSorted(h.resident, id)
		vs := f.CheckInvariants()
		if !audit.Has(vs, "fleet-reservation-sum") {
			t.Fatalf("dropped resident not caught:\n%s", audit.Report(vs))
		}
	})
	t.Run("vm-host-disagrees", func(t *testing.T) {
		f := residentFleet(t)
		id := anyResident(t, f)
		f.vms[id].host = 1 - f.vms[id].host
		vs := f.CheckInvariants()
		if !audit.Has(vs, "fleet-resident-placement") {
			t.Fatalf("host disagreement not caught:\n%s", audit.Report(vs))
		}
	})
	t.Run("scheduler-load-drift", func(t *testing.T) {
		f := residentFleet(t)
		f.sched.hosts[0].Used.RAMMB += 64
		vs := f.CheckInvariants()
		if !audit.Has(vs, "sched-recompute") || !audit.Has(vs, "fleet-reservation-sum") {
			t.Fatalf("scheduler drift not caught at both layers:\n%s", audit.Report(vs))
		}
	})
	t.Run("fleet-counter-drift", func(t *testing.T) {
		f := residentFleet(t)
		f.placed++
		vs := f.CheckInvariants()
		if !audit.Has(vs, "fleet-resident-placement") {
			t.Fatalf("counter drift not caught:\n%s", audit.Report(vs))
		}
	})
	t.Run("absorbed-pages-unbooked", func(t *testing.T) {
		f := residentFleet(t)
		id := anyResident(t, f)
		v := f.vms[id]
		v.absorbed = v.mvm.EPT.Stats.MigratedPages + 1
		vs := f.CheckInvariants()
		if !audit.Has(vs, "fleet-migration-conservation") {
			t.Fatalf("unbooked absorption not caught:\n%s", audit.Report(vs))
		}
	})
}

// churnConfig is a tight fleet under real placement pressure: some
// arrivals are rejected, VMs come and go, and rebalancing migrates.
func churnConfig(parallel int, rec *trace.Recorder) Config {
	return Config{
		Hosts:          3,
		HostCPU:        8,
		HostMemMB:      512,
		System:         sim.Gemini,
		Policy:         "best-fit",
		Stream:         StreamConfig{Arrivals: 24, MeanInterarrival: 3, MeanLifetime: 120},
		DrainTicks:     16,
		RebalanceEvery: 8,
		RebalanceGap:   0.1,
		Audit:          true,
		AuditEvery:     32,
		Parallel:       parallel,
		Seed:           11,
		Trace:          rec,
	}
}

// TestFleetChurnOutcomes runs the audited churn fleet and checks the
// result's internal consistency: counters add up, migrations happened
// and conserved pages, and the tight grid rejected someone.
func TestFleetChurnOutcomes(t *testing.T) {
	res, err := Run(churnConfig(1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed+res.Rejected != res.Arrivals {
		t.Fatalf("placed %d + rejected %d != arrivals %d", res.Placed, res.Rejected, res.Arrivals)
	}
	if res.ResidentVMs != res.Placed-res.Departed {
		t.Fatalf("resident %d != placed %d - departed %d", res.ResidentVMs, res.Placed, res.Departed)
	}
	if res.Rejected == 0 {
		t.Fatal("tight fleet rejected nothing; placement pressure test is vacuous")
	}
	if res.Migrations == 0 || res.MigratedPages == 0 {
		t.Fatalf("rebalancer never migrated (migrations=%d pages=%d)", res.Migrations, res.MigratedPages)
	}
	var in, out uint64
	for _, h := range res.PerHost {
		in += h.PagesIn
		out += h.PagesOut
	}
	if in != out || in != res.MigratedPages {
		t.Fatalf("migration flows in=%d out=%d total=%d", in, out, res.MigratedPages)
	}
	if res.Requests == 0 || res.Throughput <= 0 {
		t.Fatalf("no foreground work recorded: %d requests, %.3f thpt", res.Requests, res.Throughput)
	}
}

// TestWalkCacheArenasReleased checks the fleet's memory bound: every
// VM the churn fleet ever held — departed VMs, replicas left behind by
// live migration, and the residents released at the end of Run — has
// returned its walk-cache arena to the pool once Run is done.
func TestWalkCacheArenasReleased(t *testing.T) {
	cfg := churnConfig(1, nil)
	var f *Fleet
	seen := map[*machine.VM]int{} // replica -> fleet VM id
	cfg.OnTick = func(TickInfo) {
		for id, v := range f.vms {
			seen[v.mvm] = id
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := f.Run()
	if res.Departed == 0 || res.Migrations == 0 || res.ResidentVMs == 0 {
		t.Fatalf("fleet lacks a departure, migration or resident (%d, %d, %d); the check is vacuous",
			res.Departed, res.Migrations, res.ResidentVMs)
	}
	for vm, id := range seen {
		if vm.WalkCacheEnabled() {
			t.Errorf("fleet VM %d (machine VM %d) still holds its walk-cache arena after Run", id, vm.ID)
		}
	}
}

// TestFleetParallelTraceDeterminism locks the concurrency contract:
// stepping hosts with Parallel=1 and Parallel=4 must produce
// byte-identical text reports, event logs, and sample series, because
// all scheduling is sequential and hosts share no mutable state.
func TestFleetParallelTraceDeterminism(t *testing.T) {
	run := func(parallel int) (Result, []byte, []byte) {
		rec := trace.NewRecorder(trace.Config{SampleEvery: 16})
		res, err := Run(churnConfig(parallel, rec))
		if err != nil {
			t.Fatal(err)
		}
		var ev, se bytes.Buffer
		if err := trace.WriteEventsJSONL(&ev, res.Events); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteSeriesCSV(&se, res.Timeline); err != nil {
			t.Fatal(err)
		}
		if res.Dropped != 0 {
			t.Fatalf("parallel=%d dropped %d events", parallel, res.Dropped)
		}
		return res, ev.Bytes(), se.Bytes()
	}
	res1, ev1, se1 := run(1)
	res4, ev4, se4 := run(4)
	if got, want := res4.Format(), res1.Format(); got != want {
		t.Fatalf("reports differ across parallelism:\n--- parallel=1 ---\n%s--- parallel=4 ---\n%s", want, got)
	}
	if !bytes.Equal(ev1, ev4) {
		t.Fatal("event logs differ across parallelism")
	}
	if !bytes.Equal(se1, se4) {
		t.Fatal("sample series differ across parallelism")
	}
	if len(res1.Events) == 0 || len(res1.Timeline) == 0 {
		t.Fatalf("trace empty (%d events, %d samples); determinism test is vacuous",
			len(res1.Events), len(res1.Timeline))
	}
}

// TestDenseTickingMatchesFastForward is the fleet's dense-vs-fast-
// forward cross-check: the same traced, audited fleet stepped with the
// closed-form idle tick (the default) and with every host tick dense
// must agree on the Result, the event log bytes and the sample series
// bytes. Cells: the golden_fleet reference fleet, the same fleet under
// THP, and the audited seed-7 fleetsim command-line fleet (4 hosts ×
// 512 MiB). GEMINI never reports an idle horizon, so its fleets take
// the closed-form tick only on empty hosts; THP hosts take it with
// VMs resident.
func TestDenseTickingMatchesFastForward(t *testing.T) {
	golden := Config{
		Hosts: 3, HostCPU: 8, HostMemMB: 768, System: sim.Gemini, Policy: "best-fit",
		Stream:         StreamConfig{Arrivals: 32, MeanInterarrival: 4, MeanLifetime: 200},
		RebalanceEvery: 8, RebalanceGap: 0.1, Audit: true, Seed: 42,
	}
	goldenTHP := golden
	goldenTHP.System = sim.THP
	cells := map[string]Config{
		"golden-fleet": golden,
		"golden-THP":   goldenTHP,
		"fleetsim-seed7": {
			Hosts: 4, HostCPU: 16, HostMemMB: 512, System: sim.Gemini,
			Stream: StreamConfig{Arrivals: 24, MeanInterarrival: 3, MeanLifetime: 120},
			Audit:  true, Parallel: 2, Seed: 7,
		},
	}
	for name, cfg := range cells {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			run := func(dense bool) (Result, []byte, []byte) {
				cfg.Trace = trace.NewRecorder(trace.Config{SampleEvery: 16})
				f, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				f.dense = dense
				res := f.Run()
				var ev, se bytes.Buffer
				if err := trace.WriteEventsJSONL(&ev, res.Events); err != nil {
					t.Fatal(err)
				}
				if err := trace.WriteSeriesCSV(&se, res.Timeline); err != nil {
					t.Fatal(err)
				}
				return res, ev.Bytes(), se.Bytes()
			}
			fast, fastEv, fastSer := run(false)
			dense, denseEv, denseSer := run(true)
			if !reflect.DeepEqual(fast, dense) {
				t.Errorf("results diverged:\n--- fast-forward ---\n%s--- dense ---\n%s", fast.Format(), dense.Format())
			}
			if !bytes.Equal(fastEv, denseEv) {
				t.Errorf("event logs diverged (%d vs %d bytes)", len(fastEv), len(denseEv))
			}
			if !bytes.Equal(fastSer, denseSer) {
				t.Errorf("sample series diverged (%d vs %d bytes)", len(fastSer), len(denseSer))
			}
			if len(fast.Events) == 0 || len(fast.Timeline) == 0 || fast.Dropped != 0 {
				t.Fatalf("trace empty or lossy (%d events, %d samples, %d dropped)",
					len(fast.Events), len(fast.Timeline), fast.Dropped)
			}
		})
	}
}
