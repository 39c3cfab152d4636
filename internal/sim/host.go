package sim

// One host stack, shared by the engine and the fleet: the machine
// (NewHost), each VM with its system installed at both layers
// (BootGuest), the elasticity settings both validate
// (ValidateElasticity) and the tick clock that drives a host (Clock).
// The gauge sampler is in flight.go.

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sysreg"
	"repro/internal/tlb"
	"repro/internal/trace"
)

// NewHost builds a host machine with memMB of physical memory. An
// overcommit ratio ≥ 1 arms the swap/reclaim tier with the named
// pressure policy (DESIGN.md §10); rec, when non-nil, receives the
// machine's trace events.
func NewHost(memMB int, overcommit float64, policy string, rec *trace.Recorder) *machine.Machine {
	m := machine.NewMachine(uint64(memMB)<<20>>mem.PageShift, machine.DefaultCosts())
	if overcommit >= 1 {
		m.EnableSwap(machine.SwapConfig{Policy: policy})
	}
	m.Rec = rec
	return m
}

// ValidateElasticity checks an overcommit ratio and pressure policy
// pair: the ratio is 0 (disabled) or ≥ 1, and a policy, when named,
// needs the tier armed and must be registered. pkg prefixes the error
// ("sim", "fleet").
func ValidateElasticity(pkg string, overcommit float64, policy string) error {
	if overcommit != 0 && overcommit < 1 {
		return fmt.Errorf("%s: Overcommit %v must be 0 (disabled) or ≥ 1", pkg, overcommit)
	}
	if policy == "" {
		return nil
	}
	if overcommit == 0 {
		return fmt.Errorf("%s: PressurePolicy %q set but Overcommit is zero (elasticity disabled)", pkg, policy)
	}
	if !machine.ValidPressurePolicy(policy) {
		return fmt.Errorf("%s: unknown pressure policy %q (have %v)", pkg, policy, machine.PressurePolicyNames())
	}
	return nil
}

// Guest is one booted VM with its system installed at both layers:
// the machine VM, its guest-layer policy and the system's coordinator
// (nil for uncoordinated systems).
type Guest struct {
	VM     *machine.VM
	Policy machine.Policy
	Coord  sysreg.Coordinator
}

// BootGuest adds a guestPages VM running sys to m: the system's
// policies and translation mode, the coordinator attached, a balloon
// driver when m's swap tier is armed, and — when rec is non-nil —
// both layers' trace handles under the given VM tag.
func BootGuest(m *machine.Machine, sys System, guestPages uint64, rec *trace.Recorder, tag int) Guest {
	gp, hp, coord := sysreg.Build(sys)
	vm := m.AddVMSetup(machine.VMSetup{
		GuestPages:  guestPages,
		GuestPolicy: gp,
		HostPolicy:  hp,
		TLB:         tlb.DefaultConfig(),
		Translation: sysreg.NewTranslation(sys),
	})
	if coord != nil {
		coord.Attach(vm)
	}
	if m.SwapEnabled() {
		vm.Balloon = core.NewBalloon(vm)
	}
	if rec != nil {
		vm.Guest.Trace = rec.Handle(tag, "guest")
		vm.EPT.Trace = rec.Handle(tag, "ept")
	}
	return Guest{VM: vm, Policy: gp, Coord: coord}
}

// Clock is one host's tick clock, shared by the engine and the fleet.
// Each tick runs the machine's daemons, releases fragmented memory on
// the recovery cadence (modelling background compaction and other
// tenants freeing memory: this is what makes huge pages form
// asynchronously, and so largely independently at the two layers,
// rather than all at first touch), captures flight-recorder samples on
// the recorder's stride and audits on the audit cadence. Advance jumps
// over provably idle spans in closed form (DESIGN.md §7.4).
type Clock struct {
	m *machine.Machine
	// rec and capture take gauge samples after the machine tick; rec
	// is nil for untraced runs.
	rec     *trace.Recorder
	capture func()
	// dense pins the clock to dense ticking, the reference the
	// equivalence tests select (EngineConfig.DisableFastForward).
	dense bool
	// skipped counts the ticks advanced in closed form.
	skipped int

	// fragmenters each release one region every `every` ticks
	// (EngineConfig.RecoverEveryTicks); the fleet has none.
	fragmenters []*frag.Fragmenter
	every       int

	// auditors undergo a full invariant audit every auditEvery ticks
	// and in Finish (EngineConfig.Audit).
	auditors   []audit.Auditable
	auditEvery int
}

// NewClock returns the clock for machine m. When rec is non-nil,
// capture records one round of samples into it on every tick the
// recorder's stride selects, and Finish records the final round.
func NewClock(m *machine.Machine, rec *trace.Recorder, capture func(), dense bool) *Clock {
	return &Clock{m: m, rec: rec, capture: capture, dense: dense}
}

// tick runs one dense tick.
func (c *Clock) tick() {
	c.m.Tick()
	if c.every > 0 && c.m.Ticks%uint64(c.every) == 0 {
		for _, f := range c.fragmenters {
			f.ReleaseRegions(1)
		}
	}
	if c.rec != nil && c.rec.SampleTick(c.m.Ticks) {
		c.capture()
	}
	if c.auditEvery > 0 && c.m.Ticks%uint64(c.auditEvery) == 0 {
		c.audit()
	}
}

// Advance moves the clock n ticks. Whenever every deadline source
// proves the next k ticks are no-ops, the machine jumps over them in
// closed form (machine.AdvanceTicks); boundary ticks (release, sample,
// audit, policy scans) still run densely, so tick numbers, samples and
// all simulated state are bit-identical to the dense loop.
func (c *Clock) Advance(n int) {
	for i := 0; i < n; {
		if k := c.idleTicks(n - i); k > 0 {
			c.m.AdvanceTicks(k)
			c.skipped += k
			i += k
			continue
		}
		c.tick()
		i++
	}
}

// Finish ends the run: a final sample so the series always ends on the
// final state, the completion audit (the final state must be
// consistent), and the walk-cache arenas handed back so sweeps building
// many hosts back to back reuse them.
func (c *Clock) Finish() {
	if c.rec != nil && c.rec.SampleFinal(c.m.Ticks) {
		c.capture()
	}
	c.audit()
	c.m.ReleaseCaches()
}

// pendingRelease reports whether any fragmenter still holds regions,
// i.e. whether a future release boundary will actually free memory.
// Drained fragmenters stop constraining fast-forward.
func (c *Clock) pendingRelease() bool {
	for _, f := range c.fragmenters {
		if f.HeldRegions() > 0 {
			return true
		}
	}
	return false
}

// idleTicks reports how many upcoming ticks can be replayed in closed
// form instead of densely, capped at limit — the deadline query behind
// event-driven fast-forward (DESIGN.md §7.4). Zero means the next tick
// must run densely. The horizon is the minimum over every deadline
// source:
//
//   - the machine: compaction/reclaim pressure and each policy's
//     promotion-period deadline (machine.Machine.IdleHorizon);
//   - fragmentation recovery: a release boundary with regions still
//     held frees memory, so it (and nothing before it) may be skipped;
//   - the trace sampler: a tick the sampler could capture must run
//     densely (a skipped SampleTick that would return false is
//     unobservable, one that would return true is not);
//   - the periodic audit: boundaries run densely so audited runs keep
//     their exact audit schedule.
//
// Every source is conservative: underestimating the horizon costs one
// dense tick that then does nothing, which is byte-identical.
func (c *Clock) idleTicks(limit int) int {
	if c.dense || limit <= 0 {
		return 0
	}
	k := c.m.IdleHorizon(limit)
	if k <= 0 {
		return 0
	}
	if c.every > 0 && c.pendingRelease() {
		k = min(k, c.every-int(c.m.Ticks%uint64(c.every))-1)
	}
	if c.rec != nil {
		k = min(k, int(c.rec.NextSampleTick(c.m.Ticks)-c.m.Ticks-1))
	}
	if c.auditEvery > 0 && len(c.auditors) > 0 {
		k = min(k, c.auditEvery-int(c.m.Ticks%uint64(c.auditEvery))-1)
	}
	return k
}

// audit runs the configured invariant auditors, panicking with the
// full report on any violation: a corrupted simulation must fail
// loudly rather than skew results.
func (c *Clock) audit() {
	if vs := audit.Run(c.auditors...); len(vs) != 0 {
		panic("sim: audit after tick " + fmt.Sprint(c.m.Ticks) + ": " + audit.Report(vs))
	}
}
