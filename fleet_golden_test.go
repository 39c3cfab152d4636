package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// goldenFleetConfig is the reference fleet the determinism goldens
// lock: a 3-host cluster under churn tight enough that placement
// pressure, departures, rebalancing migrations, and a non-empty final
// resident population all occur, with the cross-layer audit on so the
// locked bytes are also invariant-checked bytes.
func goldenFleetConfig(rec *TraceRecorder) FleetConfig {
	return FleetConfig{
		Hosts:          3,
		HostCPU:        8,
		HostMemMB:      768,
		System:         sim.Gemini,
		Policy:         "best-fit",
		Stream:         FleetStreamConfig{Arrivals: 32, MeanInterarrival: 4, MeanLifetime: 200},
		RebalanceEvery: 8,
		RebalanceGap:   0.1,
		Audit:          true,
		Seed:           42,
		Trace:          rec,
	}
}

// fleetArtifacts runs the reference fleet and renders the three
// deterministic artifacts: the text report, the event log (JSONL), and
// the sample series (CSV).
func fleetArtifacts(t *testing.T) (FleetResult, string, []byte, []byte) {
	t.Helper()
	res, err := RunFleet(goldenFleetConfig(NewTraceRecorder(TraceConfig{SampleEvery: 64})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("event ring dropped %d events; goldens would be incomplete", res.Dropped)
	}
	var ev, se bytes.Buffer
	if err := WriteTraceEvents(&ev, res.Events); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceSeries(&se, res.Timeline); err != nil {
		t.Fatal(err)
	}
	return res, res.Format(), ev.Bytes(), se.Bytes()
}

// TestFleetDeterminism locks the fleet's seed contract: two runs of
// the reference configuration must agree byte for byte on the text
// report, the merged event log, and the sample series.
func TestFleetDeterminism(t *testing.T) {
	res1, rep1, ev1, se1 := fleetArtifacts(t)
	_, rep2, ev2, se2 := fleetArtifacts(t)
	if rep1 != rep2 {
		t.Errorf("same seed, different reports:\n--- first ---\n%s--- second ---\n%s", rep1, rep2)
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("same seed, different event logs")
	}
	if !bytes.Equal(se1, se2) {
		t.Error("same seed, different sample series")
	}
	// The reference run must actually exercise the fleet: placement
	// pressure, churn, migration, and a resident end state. A quieter
	// stream would lock trivial bytes.
	if res1.Rejected == 0 || res1.Departed == 0 || res1.Migrations == 0 || res1.ResidentVMs == 0 {
		t.Fatalf("reference fleet too quiet: %+v", res1)
	}
}

// TestGoldenFleetSnapshot pins the reference fleet's text report.
// Regenerate with
//
//	go test -run TestGoldenFleet -update .
//
// after confirming a behaviour change is intended.
func TestGoldenFleetSnapshot(t *testing.T) {
	_, got, _, _ := fleetArtifacts(t)
	golden := filepath.Join("testdata", "golden_fleet.txt")
	if *update {
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
		t.Errorf("fleet report drifted from golden snapshot.\ngot:\n%s\nwant:\n%s\n"+
			"If the change is intended, regenerate with -update.", got, string(want))
	}
}

// TestGoldenFleetTrace pins the reference fleet's merged event log as
// JSONL and checks it survives a decode round trip, locking emission
// sites, shard merge order, and the serialization schema.
func TestGoldenFleetTrace(t *testing.T) {
	res, _, ev, _ := fleetArtifacts(t)
	golden := filepath.Join("testdata", "golden_fleet_trace.jsonl")
	if *update {
		if err := os.WriteFile(golden, ev, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(ev, want) {
		t.Errorf("fleet event trace drifted from golden snapshot (%d vs %d bytes).\n"+
			"If the change is intended, regenerate with -update.", len(ev), len(want))
	}
	events, err := ReadTraceEvents(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden fleet trace does not decode: %v", err)
	}
	if !reflect.DeepEqual(events, res.Events) {
		t.Error("golden fleet trace decodes to different events")
	}
}

// TestGoldenFleetSeries pins the reference fleet's merged sample series
// as CSV, locking each host's scope tag, the sample ticks, and every
// gauge value. Regenerate with
//
//	go test -run TestGoldenFleet -update .
func TestGoldenFleetSeries(t *testing.T) {
	_, _, _, se := fleetArtifacts(t)
	checkGoldenBytes(t, "golden_fleet_series.csv", se)
}

// TestFleetCellsExport checks the paperbench JSON surface for fleet
// runs: one fleet-wide cell plus one per host, all finite, and the
// assembled report passes the schema validator CI runs on artifacts.
func TestFleetCellsExport(t *testing.T) {
	res, _, _, _ := fleetArtifacts(t)
	cells := FleetCells(res)
	if want := 1 + res.Hosts; len(cells) != want {
		t.Fatalf("FleetCells returned %d cells, want %d", len(cells), want)
	}
	if cells[0].Workload != "fleet" || cells[0].Metrics["hosts"] != float64(res.Hosts) {
		t.Fatalf("fleet-wide cell malformed: %+v", cells[0])
	}
	for i, c := range cells[1:] {
		if c.Workload != "host" || c.VM != i {
			t.Fatalf("host cell %d malformed: %+v", i, c)
		}
	}
	report := NewBenchReport(Options{Seed: 42})
	report.Add("fleet", cells)
	if err := report.Validate(); err != nil {
		t.Fatalf("fleet report fails schema validation: %v", err)
	}
}
