package sim

import (
	"reflect"
	"testing"

	"repro/internal/workload"
)

// smallCfg returns a fast configuration for tests.
func smallCfg(sys System, spec workload.Spec) Config {
	spec.FootprintMB = 64
	return Config{
		System:     sys,
		Workload:   spec,
		GuestMemMB: 256,
		HostMemMB:  640,
		Requests:   800,
		Seed:       7,
	}
}

func TestSystemNames(t *testing.T) {
	for _, s := range AllSystems() {
		name := s.String()
		if name == "" {
			t.Fatalf("system %d has empty name", s)
		}
		got, err := SystemByName(name)
		if err != nil || got != s {
			t.Fatalf("round trip %q: %v, %v", name, got, err)
		}
	}
	if _, err := SystemByName("bogus"); err == nil {
		t.Fatal("bogus system resolved")
	}
	if System(99).String() == "" {
		t.Fatal("unknown system empty string")
	}
	if len(Systems()) != 10 {
		t.Fatalf("Systems() = %d entries", len(Systems()))
	}
}

func TestRunBasics(t *testing.T) {
	r := Run(smallCfg(HostBVMB, workload.Masstree()))
	if r.System != "Host-B-VM-B" || r.Workload != "masstree" {
		t.Fatalf("labels: %+v", r)
	}
	if r.Throughput <= 0 || r.MeanLatency <= 0 || r.P99Latency < r.MeanLatency {
		t.Fatalf("metrics: %+v", r)
	}
	if r.GuestHuge != 0 || r.HostHuge != 0 || r.AlignedRate != 0 {
		t.Fatalf("base-only formed huge pages: %+v", r)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := Run(smallCfg(Gemini, workload.Masstree()))
	b := Run(smallCfg(Gemini, workload.Masstree()))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic:\n%+v\n%+v", a, b)
	}
}

func TestGeminiBeatsBaseUnfragmented(t *testing.T) {
	base := Run(smallCfg(HostBVMB, workload.Masstree()))
	gem := Run(smallCfg(Gemini, workload.Masstree()))
	if gem.Throughput <= base.Throughput {
		t.Fatalf("Gemini %.2f <= base %.2f", gem.Throughput, base.Throughput)
	}
	if gem.TLBMissesPerKAccess >= base.TLBMissesPerKAccess {
		t.Fatalf("Gemini misses %.1f >= base %.1f",
			gem.TLBMissesPerKAccess, base.TLBMissesPerKAccess)
	}
	if gem.AlignedRate < 0.8 {
		t.Fatalf("Gemini aligned rate = %.2f", gem.AlignedRate)
	}
}

func TestFragmentedOrdering(t *testing.T) {
	cfg := smallCfg(Gemini, workload.Masstree())
	cfg.Fragmented = true
	gem := Run(cfg)
	cfg.System = THP
	thp := Run(cfg)
	cfg.System = HostBVMB
	base := Run(cfg)
	if gem.AlignedRate <= thp.AlignedRate {
		t.Fatalf("fragmented: Gemini aligned %.2f <= THP %.2f",
			gem.AlignedRate, thp.AlignedRate)
	}
	if gem.Throughput <= base.Throughput {
		t.Fatalf("fragmented: Gemini %.2f <= base %.2f",
			gem.Throughput, base.Throughput)
	}
}

func TestReusedVMGeminiBucket(t *testing.T) {
	cfg := smallCfg(Gemini, workload.Xapian())
	cfg.ReusedVM = true
	r := Run(cfg)
	if r.BucketReuseRate <= 0 {
		t.Fatalf("no bucket reuse in reused VM: %+v", r)
	}
	// Gradual workloads with churn keep some huge pages transiently
	// unpaired; the rate still clears the uncoordinated systems by a
	// wide margin (the full harness reports ~0.9+ for static specs).
	if r.AlignedRate < 0.35 {
		t.Fatalf("reused-VM aligned rate = %.2f", r.AlignedRate)
	}
}

func TestNonTLBSensitiveOverheadSmall(t *testing.T) {
	// Shore keeps its own (intentionally small, TLB-resident)
	// footprint: smallCfg's override would re-create TLB pressure.
	cfg := smallCfg(HostBVMB, workload.Shore())
	cfg.Workload = workload.Shore()
	base := Run(cfg)
	cfg.System = Gemini
	gem := Run(cfg)
	ratio := gem.Throughput / base.Throughput
	if ratio < 0.9 || ratio > 1.15 {
		t.Fatalf("shore ratio = %.3f, want ~1 (overhead must be negligible)", ratio)
	}
}

func TestAblationsRun(t *testing.T) {
	for _, sys := range []System{GeminiNoBucket, GeminiBucketOnly, GeminiStaticTimeout, GeminiNoPrealloc} {
		r := Run(smallCfg(sys, workload.Memcached()))
		if r.Throughput <= 0 {
			t.Fatalf("%v: %+v", sys, r)
		}
	}
}

func TestColocatedPairRun(t *testing.T) {
	wa, wb := workload.Masstree(), workload.Shore()
	wa.FootprintMB, wb.FootprintMB = 64, 32
	ec := ColocatedPair(Gemini, wa, wb, 3)
	ec.VMs[0].GuestMemMB, ec.VMs[1].GuestMemMB = 256, 256
	ec.HostMemMB = 1024
	ec.Requests = 600
	rs := NewEngine(ec).Run()
	a, b := rs[0], rs[1]
	if a.Throughput <= 0 || b.Throughput <= 0 {
		t.Fatalf("colocated: %+v / %+v", a, b)
	}
	if a.Workload != "masstree" || b.Workload != "shore" {
		t.Fatalf("labels: %q %q", a.Workload, b.Workload)
	}
}

func TestRunMicroAlignmentShape(t *testing.T) {
	// Figure 2's key shape at a working set beyond base-page TLB
	// reach: well-aligned huge pages beat every other configuration,
	// and misaligned huge pages sit near base-only.
	const ds = 64
	res := map[string]MicroResult{}
	for _, gh := range []bool{false, true} {
		for _, hh := range []bool{false, true} {
			r := RunMicro(MicroConfig{GuestHuge: gh, HostHuge: hh, DatasetMB: ds, Seed: 5})
			res[r.Label] = r
		}
	}
	aligned := res["Host-H-VM-H"]
	base := res["Host-B-VM-B"]
	misG := res["Host-B-VM-H"]
	misH := res["Host-H-VM-B"]
	if aligned.Throughput < 2*base.Throughput {
		t.Fatalf("aligned %.1f not >> base %.1f", aligned.Throughput, base.Throughput)
	}
	if aligned.TLBMissRate > 0.05 {
		t.Fatalf("aligned miss rate %.3f", aligned.TLBMissRate)
	}
	for label, r := range map[string]MicroResult{"misG": misG, "misH": misH} {
		if r.TLBMissRate < base.TLBMissRate*0.8 {
			t.Fatalf("%s: misaligned miss rate %.3f far below base %.3f",
				label, r.TLBMissRate, base.TLBMissRate)
		}
		if r.Throughput > aligned.Throughput/1.5 {
			t.Fatalf("%s: misaligned throughput %.1f too close to aligned %.1f",
				label, r.Throughput, aligned.Throughput)
		}
	}
	// Misaligned still beats base slightly (shorter walks).
	if misH.Throughput < base.Throughput {
		t.Fatalf("Host-H-VM-B %.1f below base %.1f", misH.Throughput, base.Throughput)
	}
}

func TestRunMicroSmallDatasetEqual(t *testing.T) {
	// Below TLB reach all configurations perform alike (Figure 2 left
	// edge).
	a := RunMicro(MicroConfig{DatasetMB: 4, Seed: 5})
	b := RunMicro(MicroConfig{GuestHuge: true, HostHuge: true, DatasetMB: 4, Seed: 5})
	ratio := b.Throughput / a.Throughput
	if ratio < 0.9 || ratio > 1.6 {
		t.Fatalf("small dataset ratio = %.2f, want ~1", ratio)
	}
}

func TestMicroLabel(t *testing.T) {
	if MicroLabel(false, false) != "Host-B-VM-B" || MicroLabel(true, true) != "Host-H-VM-H" ||
		MicroLabel(true, false) != "Host-B-VM-H" || MicroLabel(false, true) != "Host-H-VM-B" {
		t.Fatal("labels wrong")
	}
}
