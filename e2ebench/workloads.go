package main

import (
	"fmt"
	"math"

	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/workload"
)

// cell is one unit of a workload's fixed cell list: a production run
// and its traced counterpart, which must return the same value.
type cell struct {
	name string
	// run calls the library's production entry point, untraced.
	run func() any
	// traced reproduces run through the public layer calls, timing each
	// call into t. For fleet cells it is the production fleet with the
	// per-tick hook attached.
	traced func(t *tracer) any
}

// workloadDef is one named workload: why it exists and how its cells
// are built from the seed.
type workloadDef struct {
	name, why string
	cells     func(seed int64) []cell
}

// workloads lists the benchmark's workloads in run order. The why
// strings are the ones BENCHMARK.json carries.
var workloads = []workloadDef{
	{"micro", "Figure 2 quick sweep through sim.RunMicro: access path and TLB kernel only, no ticks, fragmentation, swap or fleet", microCells},
	{"coalesce", "paper setting: fragmented single-VM THP/GEMINI/FHPM cells, dominated by the fragmenter, recovery releases and daemon ticks", coalesceCells},
	{"pressure", "3-VM hosts at 1.5x overcommit, six engine seeds per pass: swap tier, balloons, evictions and the interleaved multi-VM step path", pressureCells},
	{"fleet", "golden_fleet reference fleet per system: scheduler, live migration, VM boot and the fleet tick loop", fleetCells},
}

func workloadByName(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// quickSpec is paperbench's -quick footprint scaling: footprints above
// 32 MB halve.
func quickSpec(s workload.Spec) workload.Spec {
	if s.FootprintMB > 32 {
		s.FootprintMB /= 2
	}
	return s
}

// quickRequests is paperbench's -quick measured request count.
const quickRequests = 1500

// microCells is the Figure 2 quick grid: three data-set sizes × the
// four guest/host page-size configurations.
func microCells(seed int64) []cell {
	var out []cell
	for _, mb := range []int{4, 32, 128} {
		for _, c := range []struct{ g, h bool }{{false, false}, {true, false}, {false, true}, {true, true}} {
			mc := sim.MicroConfig{GuestHuge: c.g, HostHuge: c.h, DatasetMB: mb, Seed: seed}
			out = append(out, cell{
				name:   fmt.Sprintf("%dMB/%s", mb, sim.MicroLabel(c.g, c.h)),
				run:    func() any { return sim.RunMicro(mc) },
				traced: func(t *tracer) any { return replayMicro(mc, t) },
			})
		}
	}
	return out
}

// engineCell wraps one engine configuration as a cell.
func engineCell(name string, ec sim.EngineConfig) cell {
	return cell{
		name:   name,
		run:    func() any { return sim.NewEngine(ec).Run() },
		traced: func(t *tracer) any { return replayEngine(ec, t) },
	}
}

// coalesceConfig is the single-VM fragmented cell paperbench -quick
// runs for one system and workload, with sim.Config's defaults spelled
// out (the replay applies no defaults of its own).
func coalesceConfig(sys sim.System, spec workload.Spec, requests int, seed int64) sim.EngineConfig {
	return sim.EngineConfig{
		VMs:               []sim.VMConfig{{System: sys, Workload: quickSpec(spec), GuestMemMB: 1024}},
		HostMemMB:         2560,
		Fragmented:        true,
		FragTarget:        0.96,
		Requests:          requests,
		RequestsPerTick:   64,
		WarmupRequests:    requests,
		RecoverEveryTicks: 1,
		Seed:              seed,
	}
}

func coalesceCells(seed int64) []cell {
	var out []cell
	for _, sys := range []sim.System{sim.THP, sim.Gemini, sim.FHPM} {
		for _, spec := range []workload.Spec{workload.Masstree(), workload.Redis()} {
			out = append(out, engineCell(sys.String()+"/"+spec.Name,
				coalesceConfig(sys, spec, quickRequests, seed)))
		}
	}
	return out
}

// pressureConfig is the -exp pressure cell at the given overcommit
// ratio: the redis/masstree/memcached mix in guests snug at
// footprint + 1/8, on a host of summed guest memory ÷ ratio.
func pressureConfig(sys sim.System, ratio float64, requests int, seed int64) sim.EngineConfig {
	mix := []workload.Spec{workload.Redis(), workload.Masstree(), workload.Memcached()}
	vms := make([]sim.VMConfig, len(mix))
	sumMB := 0
	for i, spec := range mix {
		spec = quickSpec(spec)
		guestMB := spec.FootprintMB + spec.FootprintMB/8
		vms[i] = sim.VMConfig{System: sys, Workload: spec, GuestMemMB: guestMB}
		sumMB += guestMB
	}
	return sim.EngineConfig{
		VMs:               vms,
		HostMemMB:         int(math.Ceil(float64(sumMB) / ratio)),
		FragTarget:        0.96,
		Requests:          requests,
		RequestsPerTick:   64,
		WarmupRequests:    requests,
		RecoverEveryTicks: 1,
		Overcommit:        ratio,
		Seed:              seed,
	}
}

// Pressure pass shape. At 1.5× the hosts thrash, and how much they
// swap depends on the seed: one host's swap traffic varied twofold
// between seeds, most of it in the warm-up swap storm. So a pass runs
// every system at six engine seeds, 6·seed to 6·seed+5, for half the
// -quick request count each: over ten --seed values the pass's
// allocation spread (interquartile range ÷ median) fell from 0.10 at
// three seeds × 1500 requests to 0.05. No two --seed values share an
// engine seed.
const (
	pressureSubSeeds = 6
	pressureRequests = quickRequests / 2
)

func pressureCells(seed int64) []cell {
	var out []cell
	for j := int64(0); j < pressureSubSeeds; j++ {
		s := pressureSubSeeds*seed + j
		for _, sys := range []sim.System{sim.THP, sim.Gemini, sim.FHPM} {
			out = append(out, engineCell(fmt.Sprintf("%s/1.5x/seed%d", sys, s), pressureConfig(sys, 1.5, pressureRequests, s)))
		}
	}
	return out
}

// goldenStreamSeed is the golden_fleet reference fleet's churn stream
// (fleet seed 42 + 77).
const goldenStreamSeed = 42 + 77

// fleetConfig is the golden_fleet reference fleet for one system,
// without its audit and trace, stepping hosts on the calling
// goroutine. The churn stream stays the reference fleet's, so every
// seed places, rejects and migrates the same VMs (best-fit reads only
// CPU and RAM); the seed drives every VM's access stream.
func fleetConfig(sys sim.System, seed int64) fleet.Config {
	return fleet.Config{
		Hosts:     3,
		HostCPU:   8,
		HostMemMB: 768,
		System:    sys,
		Policy:    "best-fit",
		Stream: fleet.StreamConfig{Arrivals: 32, MeanInterarrival: 4, MeanLifetime: 200,
			Seed: goldenStreamSeed},
		RebalanceEvery: 8,
		RebalanceGap:   0.1,
		Parallel:       1,
		Seed:           seed,
	}
}

func fleetCell(name string, cfg fleet.Config) cell {
	return cell{
		name:   name,
		run:    func() any { return mustFleet(fleet.Run(cfg)) },
		traced: func(t *tracer) any { return t.fleet(cfg) },
	}
}

func fleetCells(seed int64) []cell {
	var out []cell
	for _, sys := range []sim.System{sim.Gemini, sim.THP, sim.FHPM} {
		out = append(out, fleetCell(sys.String(), fleetConfig(sys, seed)))
	}
	return out
}

func mustFleet(r fleet.Result, err error) fleet.Result {
	if err != nil {
		panic(err)
	}
	return r
}
