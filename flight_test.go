package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// tracedCfg is the fixed-seed Gemini run pinned by the trace golden:
// small enough to run in milliseconds, fragmented so the run exercises
// compaction, bookings, and misaligned-region repair.
func tracedCfg(rec *TraceRecorder) sim.Config {
	spec := workload.Redis()
	spec.FootprintMB /= 4
	return sim.Config{
		System:     sim.Gemini,
		Workload:   spec,
		Fragmented: true,
		Requests:   400,
		Seed:       42,
		Trace:      rec,
	}
}

// TestTracedRunDeterminism extends the seed contract to the flight
// recorder: two traced runs of the same configuration must produce
// identical event logs and sample series, bit for bit. Any wall-clock
// or map-iteration dependence in the recorder shows up here.
func TestTracedRunDeterminism(t *testing.T) {
	run := func() Result {
		return sim.Run(tracedCfg(NewTraceRecorder(TraceConfig{SampleEvery: 16})))
	}
	a, b := run(), run()
	if len(a.Events) == 0 || len(a.Timeline) == 0 {
		t.Fatalf("traced run recorded nothing: %d events, %d samples",
			len(a.Events), len(a.Timeline))
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Error("same seed, different event traces")
	}
	if !reflect.DeepEqual(a.Timeline, b.Timeline) {
		t.Error("same seed, different sample series")
	}
}

// TestTracedParallelGridDeterminism locks the tentpole contract of the
// shardable recorder: a traced experiment grid writes byte-identical
// JSONL and CSV whether it runs sequentially or on eight workers. Each
// cell records into a shard keyed by its grid index and the shards
// merge in grid order, so scheduling must not be observable.
func TestTracedParallelGridDeterminism(t *testing.T) {
	run := func(parallel int) (jsonl, csv []byte) {
		rec := NewTraceRecorder(TraceConfig{SampleEvery: 64})
		rows := Breakdown(Options{
			Quick:     true,
			Requests:  300,
			Workloads: []string{"memcached"},
			Parallel:  parallel,
			Trace:     rec,
		})
		if len(rows) != 3 {
			t.Fatalf("Breakdown returned %d rows, want 3", len(rows))
		}
		var eb, sb bytes.Buffer
		if err := WriteTraceEvents(&eb, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if err := WriteTraceSeries(&sb, rec.Samples()); err != nil {
			t.Fatal(err)
		}
		return eb.Bytes(), sb.Bytes()
	}
	j1, c1 := run(1)
	j8, c8 := run(8)
	if len(j1) == 0 || len(c1) == 0 {
		t.Fatalf("traced grid recorded nothing: %d JSONL bytes, %d CSV bytes", len(j1), len(c1))
	}
	if !bytes.Equal(j1, j8) {
		t.Errorf("event JSONL differs between Parallel=1 (%d bytes) and Parallel=8 (%d bytes)", len(j1), len(j8))
	}
	if !bytes.Equal(c1, c8) {
		t.Errorf("sample CSV differs between Parallel=1 (%d bytes) and Parallel=8 (%d bytes)", len(c1), len(c8))
	}
}

// TestTraceObserverEffect locks the zero-observer contract: attaching
// the recorder must not change a single reported metric. The traced
// and untraced runs must agree on every scalar Result field.
func TestTraceObserverEffect(t *testing.T) {
	plain := sim.Run(tracedCfg(nil))
	traced := sim.Run(tracedCfg(NewTraceRecorder(TraceConfig{})))
	if !reflect.DeepEqual(legacyResult(plain), legacyResult(traced)) {
		t.Errorf("recorder changed the run:\n  untraced: %+v\n  traced:   %+v",
			legacyResult(plain), legacyResult(traced))
	}
}

// TestGoldenTraceSnapshot pins the exact event log of the traced
// reference run as JSONL. Any change to emission sites, event ordering,
// or the serialization schema shows up as a golden diff; regenerate
// with
//
//	go test -run TestGoldenTraceSnapshot -update .
//
// after confirming the change is intended.
func TestGoldenTraceSnapshot(t *testing.T) {
	r := sim.Run(tracedCfg(NewTraceRecorder(TraceConfig{SampleEvery: 16})))
	var buf bytes.Buffer
	if err := WriteTraceEvents(&buf, r.Events); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	golden := filepath.Join("testdata", "golden_trace.jsonl")
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
		t.Errorf("event trace drifted from golden snapshot (%d vs %d bytes).\n"+
			"If the change is intended, regenerate with -update.", len(got), len(want))
	}

	// The golden log must survive a decode round trip.
	events, err := ReadTraceEvents(bytes.NewReader(want))
	if err != nil {
		t.Fatalf("golden trace does not decode: %v", err)
	}
	if !reflect.DeepEqual(events, r.Events) {
		t.Error("golden trace decodes to different events")
	}
}

// TestGoldenTraceSeries pins the gauge series of the traced reference
// run as CSV: which scopes sample, on which ticks, and every gauge
// value. Regenerate with
//
//	go test -run TestGoldenTraceSeries -update .
//
// after confirming the change is intended.
func TestGoldenTraceSeries(t *testing.T) {
	r := sim.Run(tracedCfg(NewTraceRecorder(TraceConfig{SampleEvery: 16})))
	var buf bytes.Buffer
	if err := WriteTraceSeries(&buf, r.Timeline); err != nil {
		t.Fatal(err)
	}
	checkGoldenBytes(t, "golden_series.csv", buf.Bytes())
}

// checkGoldenBytes compares got with testdata/name byte for byte, or
// rewrites the file under -update.
func checkGoldenBytes(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from its golden snapshot (%d vs %d bytes).\n"+
			"If the change is intended, regenerate with -update.", name, len(got), len(want))
	}
}
