package main

import (
	"time"

	"repro/internal/audit"
	"repro/internal/fleet"
	"repro/internal/machine"
)

// tracer accumulates the spans and counts of one traced pass. Spans
// are timed from outside the program, around the calls the replay
// makes into each layer's public functions; nothing inside the
// library is instrumented.
type tracer struct {
	// audit runs the cross-layer invariant audit at every phase end of
	// a replayed cell and the fleet's own audit in fleet cells.
	audit bool

	// Top-level spans of replayed cells; with the fleet spans below and
	// other they add up to the traced cells' wall time.
	fragment, release, populate, step, tick, ff time.Duration
	// other is traced-cell wall time outside every top-level span:
	// engine glue and result extraction.
	other time.Duration
	// fallback is nested inside populate/step/tick: time spent in the
	// layers' AllocFallback hooks (EPT direct reclaim, balloon valve).
	fallback time.Duration

	stepAccesses                         uint64
	tickDurs                             []time.Duration
	denseTicks, skippedTicks             uint64
	fallbackCalls, shootdowns            uint64
	sim                                  simCounts
	fleetNew, fleetTickSum               time.Duration
	fleetTicks, fleetEvents, fleetQuiets []time.Duration
	fleetPlaced, fleetRejected           uint64
	fleetMigrations, fleetMigrated       uint64
}

// simCounts are exact simulated statistics read from public stats after
// each replayed cell. A speed-only change leaves every one unchanged.
type simCounts struct {
	tlbAccesses, tlbMisses, walkRefs, pwcHits, pwcMisses uint64
	guestFaults, eptFaults, eptHugeFaults                uint64
	promotions, failedPromotions                         uint64
	migratedPages, compactedRegions                      uint64
	swapOut, swapIn, balloonPages                        uint64
}

// span times fn and adds the elapsed time to *d.
func span(d *time.Duration, fn func()) {
	t0 := time.Now()
	fn()
	*d += time.Since(t0)
}

// instrument wraps the machine's public per-layer hooks: AllocFallback
// (installed by the swap tier on EPT layers and by the balloon driver
// on guest layers) gets a timer and a call count, FlushRegion (the
// guest layer's TLB shootdown) a call count. The wrappers forward to
// the original hook, so the simulation is unchanged.
func (t *tracer) instrument(m *machine.Machine) {
	for _, vm := range m.VMs {
		for _, L := range []*machine.Layer{vm.Guest, vm.EPT} {
			if fb := L.AllocFallback; fb != nil {
				L.AllocFallback = func(need uint64) bool {
					t.fallbackCalls++
					t0 := time.Now()
					ok := fb(need)
					t.fallback += time.Since(t0)
					return ok
				}
			}
			if fl := L.FlushRegion; fl != nil {
				L.FlushRegion = func(va uint64) {
					t.shootdowns++
					fl(va)
				}
			}
		}
	}
}

// machineTick runs one dense daemon tick.
func (t *tracer) machineTick(m *machine.Machine) {
	t0 := time.Now()
	m.Tick()
	d := time.Since(t0)
	t.tick += d
	t.tickDurs = append(t.tickDurs, d)
	t.denseTicks++
}

// idleTicks is the timed deadline query (Machine.IdleHorizon).
func (t *tracer) idleTicks(m *machine.Machine, limit int) int {
	t0 := time.Now()
	k := m.IdleHorizon(limit)
	t.ff += time.Since(t0)
	return k
}

// advance is the timed closed-form skip (Machine.AdvanceTicks).
func (t *tracer) advance(m *machine.Machine, k int) {
	t0 := time.Now()
	m.AdvanceTicks(k)
	t.ff += time.Since(t0)
	t.skippedTicks += uint64(k)
}

// checkAudit runs the invariant audit over the targets when the tracer
// audits, panicking with the report on a violation.
func (t *tracer) checkAudit(phase string, targets []audit.Auditable) {
	if !t.audit {
		return
	}
	if vs := audit.Run(targets...); len(vs) != 0 {
		panic("audit after " + phase + ": " + audit.Report(vs))
	}
}

// countVM adds one VM's end-of-cell statistics. TLB counts cover the
// measured phase (the replay resets them as production does); layer
// counts cover the whole cell.
func (t *tracer) countVM(vm *machine.VM, accesses uint64) {
	ts := vm.TLB.Stats()
	c := &t.sim
	c.tlbAccesses += accesses
	c.tlbMisses += ts.Misses
	c.walkRefs += ts.WalkRefs
	c.pwcHits += ts.PWCHits
	c.pwcMisses += ts.PWCMisses
	g, e := vm.Guest.Stats, vm.EPT.Stats
	c.guestFaults += g.Faults
	c.eptFaults += e.Faults
	c.eptHugeFaults += e.HugeFaults
	c.promotions += g.InPlacePromotions + g.MigrationPromotions + e.InPlacePromotions + e.MigrationPromotions
	c.failedPromotions += g.FailedPromotions + e.FailedPromotions
	c.migratedPages += g.MigratedPages + e.MigratedPages
	c.compactedRegions += g.CompactedRegions + e.CompactedRegions
	c.swapOut += e.SwappedOutPages
	c.swapIn += e.SwappedInPages
	if vm.Balloon != nil {
		c.balloonPages += vm.Balloon.Inflated()
	}
}

// fleet runs one production fleet with the per-tick timer on the
// public OnTick hook (which changes no simulated state). A tick is an
// event tick when a VM was placed, rejected or departed, or a migration
// completed during it; otherwise it is quiet.
func (t *tracer) fleet(cfg fleet.Config) fleet.Result {
	cfg.Audit = t.audit
	var prev fleet.TickInfo
	var last time.Time
	cfg.OnTick = func(ti fleet.TickInfo) {
		now := time.Now()
		d := now.Sub(last)
		last = now
		t.fleetTickSum += d
		t.fleetTicks = append(t.fleetTicks, d)
		if ti.Placed != prev.Placed || ti.Rejected != prev.Rejected ||
			ti.Departed != prev.Departed || ti.Migrations != prev.Migrations {
			t.fleetEvents = append(t.fleetEvents, d)
		} else {
			t.fleetQuiets = append(t.fleetQuiets, d)
		}
		prev = ti
	}
	t0 := time.Now()
	f, err := fleet.New(cfg)
	if err != nil {
		panic(err)
	}
	last = time.Now()
	t.fleetNew += last.Sub(t0)
	r := f.Run()
	t.fleetPlaced += uint64(r.Placed)
	t.fleetRejected += uint64(r.Rejected)
	t.fleetMigrations += uint64(r.Migrations)
	t.fleetMigrated += r.MigratedPages
	return r
}

// spanned is the sum of every top-level span: the replayed cells'
// phases plus the fleet's construction and ticks.
func (t *tracer) spanned() time.Duration {
	return t.fragment + t.release + t.populate + t.step + t.tick + t.ff + t.fleetNew + t.fleetTickSum
}
