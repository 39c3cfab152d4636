package repro

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// TestAuditedGeminiRun drives the paper's headline setting — Gemini on
// fragmented memory, clean slate — with the full cross-layer invariant
// audit enabled. sim.Run panics on the first violation, so completing
// is the assertion: every audit over the whole run found the buddy
// allocator, page tables, TLB, and coordinator mutually consistent.
func TestAuditedGeminiRun(t *testing.T) {
	cfg := sim.Config{
		System:     sim.Gemini,
		Workload:   workload.Redis(),
		Fragmented: true,
		Requests:   1000,
		Audit:      true,
		AuditEvery: 8,
		Seed:       7,
	}
	cfg.Workload.FootprintMB /= 2
	res := sim.Run(cfg)
	if res.Throughput <= 0 {
		t.Fatalf("audited run produced no throughput: %+v", res)
	}
}

// TestAuditedColocatedRun exercises the two-VM consolidation path
// (shared host allocator, two coordinators) under the same audit.
func TestAuditedColocatedRun(t *testing.T) {
	a, b := workload.Specjbb(), workload.Shore()
	a.FootprintMB /= 4
	b.FootprintMB /= 4
	ec := sim.ColocatedPair(sim.Gemini, a, b, 7)
	ec.Fragmented, ec.Requests = true, 600
	ec.Audit, ec.AuditEvery = true, 8
	rs := sim.NewEngine(ec).Run()
	if rs[0].Throughput <= 0 || rs[1].Throughput <= 0 {
		t.Fatalf("audited collocated run produced no throughput: %+v / %+v", rs[0], rs[1])
	}
}

// overcommitAuditConfig is one -exp pressure cell at 1.5× overcommit
// (the redis/masstree/memcached mix in guests snug at footprint + 1/8,
// on a host of summed guest memory ÷ 1.5), with footprints divided by
// shrink and the invariant audit after every tick.
func overcommitAuditConfig(sys sim.System, shrink, requests int, seed int64) sim.EngineConfig {
	var vms []sim.VMConfig
	sumMB := 0
	for _, spec := range pressureMix() {
		spec.FootprintMB /= shrink
		guestMB := spec.FootprintMB + spec.FootprintMB/8
		vms = append(vms, sim.VMConfig{System: sys, Workload: spec, GuestMemMB: guestMB})
		sumMB += guestMB
	}
	return sim.EngineConfig{
		VMs: vms, HostMemMB: int(math.Ceil(float64(sumMB) / 1.5)), Overcommit: 1.5,
		Requests: requests, Audit: true, AuditEvery: 1, Seed: seed,
	}
}

// TestEveryTickAuditedCoordinatedSystems runs every coordinated system
// (GEMINI, its four ablations and FHPM) through an overcommitted cell
// with the invariant audit after every tick; the run panics on the
// first violation. The periodic 32-tick audit hid GEMINI's booking
// claim double-count for several releases. The GEMINI cell is that
// bug's reproducer, the -quick cell (footprints halved, 1500
// requests) at engine seed 163: a claimed booked page goes back to its
// reservation, and the re-claim at tick 20 used to count the page
// twice. The other systems run eighth-size, 400-request cells.
func TestEveryTickAuditedCoordinatedSystems(t *testing.T) {
	for _, sys := range sim.AllSystems() {
		if !sim.Def(sys).Coordinated {
			continue
		}
		sys := sys
		t.Run(sys.String(), func(t *testing.T) {
			t.Parallel()
			ec := overcommitAuditConfig(sys, 8, 400, 163)
			if sys == sim.Gemini {
				ec = overcommitAuditConfig(sys, 2, 1500, 163) // the -quick cell
			}
			var traffic uint64
			for _, r := range sim.NewEngine(ec).Run() {
				if r.Throughput <= 0 {
					t.Fatalf("audited overcommitted run produced no throughput: %+v", r)
				}
				traffic += r.SwappedOutPages + r.BalloonPages
			}
			if traffic == 0 {
				t.Error("no swap or balloon traffic; the cell is not exercising the elasticity tier")
			}
		})
	}
}
