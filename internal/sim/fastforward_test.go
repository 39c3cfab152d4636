package sim

import (
	"bytes"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

// runTraced runs one traced, streamed engine configuration and
// returns the results, the raw streamed event and series bytes, and
// the number of ticks the run advanced in closed form.
func runTraced(t *testing.T, ec EngineConfig) ([]Result, []byte, []byte, int) {
	t.Helper()
	rec := trace.NewRecorder(trace.Config{SampleEvery: 4})
	var events, series bytes.Buffer
	if err := rec.StreamTo(&events, &series); err != nil {
		t.Fatal(err)
	}
	ec.Trace = rec
	e := NewEngine(ec)
	rs := e.Run()
	return rs, events.Bytes(), series.Bytes(), e.clock.skipped
}

// TestFastForwardByteIdentical is the dense-vs-fast-forward
// cross-check: the same configuration run with event-driven
// fast-forward (the default) and with EngineConfig.DisableFastForward
// must produce byte-identical results, flight-recorder traces, and
// streamed output. Fast-forward only jumps the tick clock over spans
// every deadline source (policy periods, recovery boundaries, the
// trace sampler, audits) has proved are no-ops, so any observable
// divergence here is a bug in a deadline, not a tolerance question.
//
// Cells: a promotion-heavy system on pristine memory, a Gradual-style
// workload whose growth keeps batches short, one small fragmented and
// one small pristine cell per figure system, and one consolidation
// pair, all audited. Fragmented cells never skip a tick (a recovery
// release is due every tick while fragmenters hold memory), so the
// pristine cells are the ones that exercise the closed-form path.
func TestFastForwardByteIdentical(t *testing.T) {
	single := func(sys System, spec workload.Spec, frag bool) EngineConfig {
		cfg := smallCfg(sys, spec)
		cfg.Fragmented = frag
		cfg.Audit = true
		return cfg.engineConfig()
	}
	cells := map[string]EngineConfig{
		"gemini-masstree":    single(Gemini, workload.Masstree(), false),
		"thp-xapian-gradual": single(THP, workload.Xapian(), true),
	}
	for _, sys := range Systems() {
		for name, frag := range map[string]bool{"fragmented-": true, "pristine-": false} {
			ec := single(sys, workload.Redis(), frag)
			ec.VMs[0].Workload.FootprintMB = 32
			ec.Requests = 400
			cells[name+sys.String()] = ec
		}
	}
	a, b := workload.Masstree(), workload.Shore()
	a.FootprintMB, b.FootprintMB = 32, 16
	pair := ColocatedPair(Gemini, a, b, 3)
	pair.VMs[0].GuestMemMB, pair.VMs[1].GuestMemMB = 256, 256
	pair.HostMemMB = 1024
	pair.Fragmented, pair.Requests, pair.Audit = true, 400, true
	cells["colocated-pair-GEMINI"] = pair

	var skipped atomic.Int64
	t.Cleanup(func() {
		if skipped.Load() == 0 {
			t.Error("no cell advanced a tick in closed form; the cross-check is vacuous")
		}
	})
	for name, ec := range cells {
		ec := ec
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			fast, fastEv, fastSer, k := runTraced(t, ec)
			skipped.Add(int64(k))

			dense := ec
			dense.DisableFastForward = true
			slow, slowEv, slowSer, denseK := runTraced(t, dense)
			if denseK != 0 {
				t.Fatalf("dense run skipped %d ticks", denseK)
			}

			// The config knob itself is the only permitted difference;
			// results carry no config echo, so full deep-equality holds.
			if !reflect.DeepEqual(fast, slow) {
				t.Errorf("results diverged\nfast-forward: %+v\ndense:        %+v", fast, slow)
			}
			if !bytes.Equal(fastEv, slowEv) {
				t.Errorf("streamed event bytes diverged (%d vs %d bytes)", len(fastEv), len(slowEv))
			}
			if !bytes.Equal(fastSer, slowSer) {
				t.Errorf("streamed series bytes diverged (%d vs %d bytes)", len(fastSer), len(slowSer))
			}
		})
	}
}

// TestResultsFiniteWithZeroMeasurement is the NaN regression test for
// the zero-division sweep: an engine that measures nothing (the
// results()-level Requests == 0 degenerate case that Validate rejects
// at the config boundary) must still report finite metrics — the
// safeDiv guards turn every 0/0 rate into 0 rather than NaN, so JSON
// encoding and downstream table formatting never see non-finite
// floats.
func TestResultsFiniteWithZeroMeasurement(t *testing.T) {
	e := NewEngine(EngineConfig{
		VMs: []VMConfig{{
			System:     HostBVMB,
			Workload:   workload.Micro(8),
			GuestMemMB: 256,
		}},
		HostMemMB: 640,
		Requests:  100,
		Seed:      3,
	})
	// Force the degenerate state directly: no measured requests, no
	// accesses. results() must not divide by these.
	for _, ev := range e.vms {
		ev.ops, ev.fg, ev.acc = 0, 0, 0
	}
	for _, r := range e.results() {
		for _, v := range []float64{
			r.Throughput, r.TLBMissesPerKAccess, r.WalkCyclesPerAccess,
			r.AlignedRate, r.GuestFMFI, r.HugeCoverage, r.MeanLatency, r.P99Latency,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite metric in %+v", r)
			}
		}
	}
	// And the config boundary rejects an explicit zero outright.
	bad := EngineConfig{VMs: []VMConfig{{Workload: workload.Micro(8)}}, Requests: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted Requests == 0")
	}
}
