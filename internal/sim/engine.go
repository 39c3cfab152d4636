package sim

// This file implements the unified N-VM simulation engine. One
// deterministic run loop drives every evaluation setting of the paper:
// a single clean-slate VM (§6.2), a reused VM (§6.3), and N collocated
// VMs (§6.5) are all the same sequence of explicit phases —
//
//	fragment → predecessor → warmup → settle → measure
//
// — differing only in how many VMs the engine hosts and how each VM is
// configured. Run translates the single-VM Config into an
// EngineConfig, ColocatedPair builds the two-VM one, and RunMany runs
// a VM list with engine defaults.
//
// Seeding contract: every VM owns disjoint RNG streams derived from
// the engine seed S and the VM index i. The per-VM base is
// S + 1000*i, and the streams are
//
//	workload    base + 404
//	predecessor base + 303
//	guest frag  base + 202
//	host frag   S + 101        (one host, one stream)
//
// so VM 0 of an engine run consumes exactly the streams the historic
// single-VM loop did, which is what keeps the golden snapshots
// bit-for-bit stable across the refactor. Settings with older seeding
// conventions (ColocatedPair) override the derived streams through the
// explicit seed fields on VMConfig and EngineConfig.

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/sysreg"
	"repro/internal/tlb"
	"repro/internal/trace"
	"repro/internal/workload"
)

// FragSpec seeds one layer's fragmenter: drive the allocator to
// Target FMFI, retaining Density of the allocated population.
type FragSpec struct {
	Seed    int64
	Target  float64
	Density float64
}

// VMConfig describes one VM of an engine run.
type VMConfig struct {
	// System selects the page management system for this VM. VMs of
	// one run may use different systems.
	System System
	// Workload is the application model this VM runs.
	Workload workload.Spec
	// GuestMemMB sizes the guest physical memory (default 768, the
	// consolidation default).
	GuestMemMB int
	// ReusedVM runs the SVM predecessor to completion in this VM
	// before the measured workload starts (§6.3).
	ReusedVM bool

	// WorkloadSeed overrides the derived workload RNG stream
	// (zero selects the engine's seeding contract).
	WorkloadSeed int64
	// PredecessorSeed overrides the derived predecessor stream.
	PredecessorSeed int64
	// GuestFrag overrides the derived guest fragmenter stream and
	// targets (nil selects the contract; only used when the engine is
	// Fragmented).
	GuestFrag *FragSpec
}

// EngineConfig describes one N-VM engine run.
type EngineConfig struct {
	// VMs lists the guests consolidated on the host, in boot order.
	VMs []VMConfig
	// HostMemMB sizes host physical memory (default: 1.5x the summed
	// guest memory, and at least 2560).
	HostMemMB int
	// Fragmented pre-fragments host and every guest memory (§6.1).
	Fragmented bool
	// FragTarget is the FMFI the derived fragmenters drive toward
	// (default 0.96).
	FragTarget float64
	// HostFrag overrides the derived host fragmenter stream.
	HostFrag *FragSpec
	// Requests is the measured request count per VM (default 4000).
	Requests int
	// RequestsPerTick paces the background daemons (default 64).
	RequestsPerTick int
	// WarmupRequests run per VM before measurement (default Requests).
	WarmupRequests int
	// RecoverEveryTicks paces fragmentation recovery: one huge region
	// per layer returns every N ticks (default 1).
	RecoverEveryTicks int
	// Audit runs the full cross-layer invariant audit every AuditEvery
	// daemon ticks and at run completion, panicking with a report on
	// the first violation.
	Audit bool
	// AuditEvery paces the periodic audit (default 32 ticks).
	AuditEvery int
	// Seed drives all randomness through the seeding contract above.
	Seed int64
	// Overcommit arms the memory-elasticity tier (DESIGN.md §10).
	// Zero — the default — disables it: the summed guest memory must
	// fit in host memory and no swap or balloon machinery exists, so
	// every pre-elasticity configuration behaves bit-identically. A
	// value ≥ 1 relaxes admission to sum ≤ HostMemMB × Overcommit,
	// arms the host swap/reclaim tier (machine.EnableSwap), and
	// installs a balloon driver in every VM. 1.0 is a meaningful
	// setting: admission is unchanged but the tier is armed, guarding
	// a tight host against EPT bloat. Values in (0, 1) are invalid.
	Overcommit float64
	// PressurePolicy names the registered machine.PressurePolicy the
	// armed swap tier uses to pick swap-out victims ("" selects
	// machine.DefaultPressurePolicy). Requires Overcommit ≥ 1.
	PressurePolicy string
	// DisableFastForward forces dense ticking through the settle
	// windows instead of jumping the tick clock over provably idle
	// spans (DESIGN.md §7.4). Results, traces, and streamed output are
	// bit-identical either way, so no command exposes it: the dense
	// path is the reference that the equivalence tests select.
	DisableFastForward bool
	// Trace, when non-nil, attaches the flight recorder: every layer
	// emits structured events into it, the engine stamps phase
	// boundaries, and gauge samples are captured on the recorder's
	// tick stride. Nil (the default) records nothing and adds nothing
	// to the run's hot paths. Engines running concurrently must not
	// share one recorder; give each engine a private shard of a parent
	// (trace.Recorder.Shard) and merge the shards after the runs
	// finish.
	Trace *trace.Recorder
}

// withDefaults fills zero fields.
func (ec EngineConfig) withDefaults() EngineConfig {
	vms := make([]VMConfig, len(ec.VMs))
	copy(vms, ec.VMs)
	sumGuestMB := 0
	for i := range vms {
		if vms[i].GuestMemMB == 0 {
			vms[i].GuestMemMB = 768
		}
		sumGuestMB += vms[i].GuestMemMB
	}
	ec.VMs = vms
	if ec.HostMemMB == 0 {
		ec.HostMemMB = sumGuestMB + sumGuestMB/2
		if ec.HostMemMB < 2560 {
			ec.HostMemMB = 2560
		}
	}
	if ec.Requests == 0 {
		ec.Requests = 4000
	}
	if ec.RequestsPerTick == 0 {
		ec.RequestsPerTick = 64
	}
	if ec.WarmupRequests == 0 {
		ec.WarmupRequests = ec.Requests
	}
	if ec.RecoverEveryTicks == 0 {
		ec.RecoverEveryTicks = 1
	}
	if ec.AuditEvery == 0 {
		ec.AuditEvery = 32
	}
	if ec.FragTarget == 0 {
		ec.FragTarget = 0.96
	}
	return ec
}

// Validate reports whether the configuration describes a runnable
// engine run. NewEngine panics on an invalid configuration; callers
// wanting an error instead should Validate first.
func (ec EngineConfig) Validate() error {
	if len(ec.VMs) == 0 {
		return fmt.Errorf("sim: engine needs at least one VM")
	}
	if ec.Requests < 0 || ec.WarmupRequests < 0 || ec.RequestsPerTick < 0 ||
		ec.RecoverEveryTicks < 0 || ec.AuditEvery < 0 {
		return fmt.Errorf("sim: negative pacing parameter (Requests %d, WarmupRequests %d, RequestsPerTick %d, RecoverEveryTicks %d, AuditEvery %d)",
			ec.Requests, ec.WarmupRequests, ec.RequestsPerTick, ec.RecoverEveryTicks, ec.AuditEvery)
	}
	if ec.Requests == 0 {
		// A zero-request measure phase makes every per-request rate
		// 0/0. NewEngine validates after applying defaults, so the
		// zero value still means "default" there; an explicit
		// Validate call sees the configuration as given.
		return fmt.Errorf("sim: Requests must be positive (zero measures nothing)")
	}
	if ec.HostMemMB < 0 {
		return fmt.Errorf("sim: negative memory size (host %d MB)", ec.HostMemMB)
	}
	if ec.FragTarget < 0 || ec.FragTarget >= 1 {
		return fmt.Errorf("sim: FragTarget %v outside [0,1)", ec.FragTarget)
	}
	if ec.Overcommit != 0 && ec.Overcommit < 1 {
		return fmt.Errorf("sim: Overcommit %v must be 0 (disabled) or ≥ 1", ec.Overcommit)
	}
	if ec.PressurePolicy != "" {
		if ec.Overcommit == 0 {
			return fmt.Errorf("sim: PressurePolicy %q set but Overcommit is zero (elasticity disabled)",
				ec.PressurePolicy)
		}
		if !machine.ValidPressurePolicy(ec.PressurePolicy) {
			return fmt.Errorf("sim: unknown pressure policy %q (have %v)",
				ec.PressurePolicy, machine.PressurePolicyNames())
		}
	}
	for i, vc := range ec.VMs {
		if !sysreg.Valid(vc.System) {
			return fmt.Errorf("sim: VM %d System %d out of range [0,%d)",
				i, int(vc.System), sysreg.Count())
		}
		if vc.GuestMemMB < 0 {
			return fmt.Errorf("sim: VM %d negative memory size (guest %d MB)",
				i, vc.GuestMemMB)
		}
		if vc.Workload.Name == "" {
			return fmt.Errorf("sim: VM %d workload has no name", i)
		}
		if vc.Workload.FootprintMB <= 0 || vc.Workload.RequestPages <= 0 {
			return fmt.Errorf("sim: workload %q needs a positive footprint and request size",
				vc.Workload.Name)
		}
	}
	d := ec.withDefaults()
	sum := 0
	for _, vc := range d.VMs {
		sum += vc.GuestMemMB
	}
	limitMB := float64(d.HostMemMB)
	if d.Overcommit >= 1 {
		limitMB *= d.Overcommit
	}
	if float64(sum) > limitMB {
		if d.Overcommit >= 1 {
			return fmt.Errorf("sim: summed guest memory %d MB exceeds host memory %d MB × overcommit %v",
				sum, d.HostMemMB, d.Overcommit)
		}
		return fmt.Errorf("sim: summed guest memory %d MB exceeds host memory %d MB",
			sum, d.HostMemMB)
	}
	return nil
}

// engineVM bundles one VM's live pieces and measurement accumulators.
type engineVM struct {
	cfg   VMConfig
	vm    *machine.VM
	gp    machine.Policy
	coord sysreg.Coordinator

	w            *workload.Workload
	lat          *metrics.Histogram
	fg, ops, acc uint64
	bg0, migBase uint64
}

// Engine is the unified N-VM run loop. Build one with NewEngine, then
// call Run once; the phases execute in a fixed order and all VMs share
// the host's daemon ticking and recovery pacing.
type Engine struct {
	cfg EngineConfig
	m   *machine.Machine
	vms []*engineVM
	rec *recovery
}

// Engine phase pacing, shared by every evaluation setting: the settle
// windows let promotion bursts complete before measurement, as they
// would over a long real run.
const (
	// settleTicks run between warmup and measurement.
	settleTicks = 80
	// predecessorSettleTicks run after each predecessor workload.
	predecessorSettleTicks = 40
)

// NewEngine builds the machine from the configuration: host memory,
// every VM with its policies and (for Gemini systems) its coordinator,
// and the audit wiring. Defaults are applied first and the defaulted
// configuration is then validated — in that order, so the zero value
// of a field still selects its default while Validate can reject a
// meaningless explicit value (Requests == 0 would measure nothing and
// turn every per-request rate into 0/0). Panics when the defaulted
// cfg fails Validate.
func NewEngine(cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	hostPages := uint64(cfg.HostMemMB) << 20 >> mem.PageShift
	e := &Engine{
		cfg: cfg,
		m:   machine.NewMachine(hostPages, machine.DefaultCosts()),
	}
	for _, vc := range cfg.VMs {
		gp, hp, coord := sysreg.Build(vc.System)
		vm := e.m.AddVMSetup(machine.VMSetup{
			GuestPages:  uint64(vc.GuestMemMB) << 20 >> mem.PageShift,
			GuestPolicy: gp,
			HostPolicy:  hp,
			TLB:         tlb.DefaultConfig(),
			Translation: sysreg.NewTranslation(vc.System),
		})
		if coord != nil {
			coord.Attach(vm)
		}
		e.vms = append(e.vms, &engineVM{cfg: vc, vm: vm, gp: gp, coord: coord})
	}
	if cfg.Overcommit >= 1 {
		// Elasticity armed (DESIGN.md §10): the host responds to memory
		// pressure by inflating balloons and swapping out cold regions
		// instead of panicking on allocation failure.
		e.m.EnableSwap(machine.SwapConfig{Policy: cfg.PressurePolicy})
		for _, ev := range e.vms {
			ev.vm.Balloon = core.NewBalloon(ev.vm)
		}
	}
	e.rec = &recovery{every: cfg.RecoverEveryTicks, disableFF: cfg.DisableFastForward}
	if cfg.Trace != nil {
		e.m.Rec = cfg.Trace
		for i, ev := range e.vms {
			ev.vm.Guest.Trace = cfg.Trace.Handle(i, "guest")
			ev.vm.EPT.Trace = cfg.Trace.Handle(i, "ept")
		}
		e.rec.sampler = e.sample
		e.rec.samplerNext = cfg.Trace.NextSampleTick
	}
	if cfg.Audit {
		e.rec.auditEvery = cfg.AuditEvery
		e.rec.auditors = []audit.Auditable{e.m}
		for _, ev := range e.vms {
			if a, ok := ev.coord.(audit.Auditable); ok {
				e.rec.auditors = append(e.rec.auditors, a)
			}
		}
	}
	return e
}

// Machine exposes the engine's machine for introspection and audits.
func (e *Engine) Machine() *machine.Machine { return e.m }

// Run executes the engine's phases in order and returns one Result per
// VM, in VM order.
func (e *Engine) Run() []Result {
	e.phased("fragment", e.fragmentPhase)
	e.phased("predecessor", e.predecessorPhase)
	e.phased("warmup", e.warmupPhase)
	e.phased("settle", func() { e.settle(settleTicks) })
	e.phased("measure", e.measurePhase)
	e.finalSample()
	e.rec.audit() // completion audit: the final state must be consistent
	// The run's hot work is over; hand the walk-cache arenas back so
	// sweeps building many engines back to back reuse them.
	e.m.ReleaseCaches()
	return e.results()
}

// phased runs one engine phase, bracketing it with PhaseStart/PhaseEnd
// events when the run is traced.
func (e *Engine) phased(name string, fn func()) {
	if r := e.cfg.Trace; r != nil {
		r.BeginPhase(name)
		defer r.EndPhase(name)
	}
	fn()
}

// vmSeedBase is the per-VM seed stream origin (see the contract above).
func (e *Engine) vmSeedBase(i int) int64 { return e.cfg.Seed + 1000*int64(i) }

func (e *Engine) workloadSeed(i int) int64 {
	if s := e.cfg.VMs[i].WorkloadSeed; s != 0 {
		return s
	}
	return e.vmSeedBase(i) + 404
}

func (e *Engine) predecessorSeed(i int) int64 {
	if s := e.cfg.VMs[i].PredecessorSeed; s != 0 {
		return s
	}
	return e.vmSeedBase(i) + 303
}

// fragmentPhase pre-fragments host memory and then each guest memory,
// in VM order, before any workload touches a page (§6.1).
func (e *Engine) fragmentPhase() {
	if !e.cfg.Fragmented {
		return
	}
	hostSpec := e.cfg.HostFrag
	if hostSpec == nil {
		hostSpec = &FragSpec{Seed: e.cfg.Seed + 101, Target: e.cfg.FragTarget, Density: 0.55}
	}
	hf := frag.New(e.m.HostBuddy, hostSpec.Seed)
	hf.FragmentTo(hostSpec.Target, hostSpec.Density)
	fragmenters := []*frag.Fragmenter{hf}
	for i, ev := range e.vms {
		gs := ev.cfg.GuestFrag
		if gs == nil {
			gs = &FragSpec{Seed: e.vmSeedBase(i) + 202, Target: e.cfg.FragTarget, Density: 0.5}
		}
		gf := frag.New(ev.vm.Guest.Buddy, gs.Seed)
		gf.FragmentTo(gs.Target, gs.Density)
		fragmenters = append(fragmenters, gf)
	}
	e.rec.fragmenters = fragmenters
}

// predecessorPhase runs the SVM predecessor to completion and tears it
// down in every ReusedVM guest, in VM order, leaving those VMs
// "reused" (§6.3): guest memory freed, EPT backing retained.
func (e *Engine) predecessorPhase() {
	for i, ev := range e.vms {
		if !ev.cfg.ReusedVM {
			continue
		}
		spec := workload.SVM()
		// The predecessor's working set should dominate guest memory
		// as the paper's ~30 GB SVM run does on a 32 GB VM.
		spec.FootprintMB = ev.cfg.GuestMemMB * 2 / 5
		w := workload.New(spec, ev.vm, e.predecessorSeed(i))
		p := newPacer(e.cfg.Requests/4, e.cfg.RequestsPerTick)
		for {
			b, tick := p.next()
			if b == 0 {
				break
			}
			w.StepN(b, nil)
			if tick {
				e.rec.tick(e.m)
			}
		}
		e.settle(predecessorSettleTicks)
		w.Teardown()
		ev.vm.ResetGuestProcess()
		e.rec.tick(e.m)
	}
}

// warmupPhase creates every VM's measured workload and drives all of
// them to steady state (huge pages formed, TLB warm), interleaving
// one request per VM per iteration. The daemons tick densely here so
// promotion bursts complete before measurement, as they would over a
// long real run.
func (e *Engine) warmupPhase() {
	for i, ev := range e.vms {
		ev.w = workload.New(ev.cfg.Workload, ev.vm, e.workloadSeed(i))
		ev.migBase = ev.vm.Guest.Stats.MigratedPages + ev.vm.EPT.Stats.MigratedPages
	}
	p := newPacer(e.cfg.WarmupRequests, e.cfg.RequestsPerTick)
	for {
		b, tick := p.next()
		if b == 0 {
			break
		}
		if len(e.vms) == 1 {
			// One VM: the whole inter-tick batch runs through the
			// vectorized core in one call.
			e.vms[0].w.StepN(b, nil)
		} else {
			// N VMs interleave one request per VM per iteration; that
			// cross-VM order allocates host frames identically to the
			// historic loop, so it is preserved request by request.
			for j := 0; j < b; j++ {
				for _, ev := range e.vms {
					ev.w.StepOne()
				}
			}
		}
		if tick {
			e.rec.tick(e.m)
		}
	}
}

// settle advances the daemons with no foreground load. With no
// requests arriving this is the phase where machines go quiescent —
// promotion periods between scans, drained fragmenters, decayed heat
// — so it fast-forwards: whenever every deadline source proves the
// next k ticks are no-ops, the tick clock jumps over them in closed
// form (recovery.idleTicks / skip). Boundary ticks (release, sample,
// audit, policy scans) still run densely, so tick numbers, samples,
// and all simulated state are bit-identical to the dense loop.
func (e *Engine) settle(ticks int) {
	for i := 0; i < ticks; {
		if k := e.rec.idleTicks(e.m, ticks-i); k > 0 {
			e.rec.skip(e.m, k)
			i += k
			continue
		}
		e.rec.tick(e.m)
		i++
	}
}

// measurePhase resets the TLB statistics and measures every VM's
// request stream, interleaved one request per VM per iteration.
func (e *Engine) measurePhase() {
	for _, ev := range e.vms {
		ev.vm.TLB.ResetStats()
	}
	for _, ev := range e.vms {
		ev.lat = metrics.NewHistogram()
		ev.bg0 = ev.vm.Guest.Stats.BackgroundCycles + ev.vm.EPT.Stats.BackgroundCycles
	}
	single := len(e.vms) == 1
	var latBuf []uint64
	if single && e.vms[0].cfg.Workload.LatencySensitive {
		// Batches never exceed the tick stride; one reusable buffer
		// carries per-request costs out of StepN for the histogram.
		latBuf = make([]uint64, e.cfg.RequestsPerTick)
	}
	p := newPacer(e.cfg.Requests, e.cfg.RequestsPerTick)
	for {
		b, tick := p.next()
		if b == 0 {
			break
		}
		if single {
			ev := e.vms[0]
			if latBuf != nil {
				ev.fg += ev.w.StepN(b, latBuf[:b])
				for _, c := range latBuf[:b] {
					ev.lat.Record(float64(c))
				}
			} else {
				ev.fg += ev.w.StepN(b, nil)
			}
			ev.ops += uint64(b)
			ev.acc += uint64(b) * uint64(ev.cfg.Workload.RequestPages)
		} else {
			for j := 0; j < b; j++ {
				for _, ev := range e.vms {
					// One request per VM per iteration, via the
					// allocation-free StepOne.
					c := ev.w.StepOne()
					ev.fg += c
					ev.ops++
					ev.acc += uint64(ev.cfg.Workload.RequestPages)
					if ev.cfg.Workload.LatencySensitive {
						ev.lat.Record(float64(c))
					}
				}
			}
		}
		if tick {
			e.rec.tick(e.m)
		}
	}
}

// safeDiv returns a/b, or 0 when b is 0. The per-request rates divide
// by measured cycle and access counts, which are zero if measurement
// never ran (a forced zero-request run); a 0/0 NaN here would leak
// into paperbench/v1 JSON, which forbids non-finite values.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// bucketReporter is the narrow introspection surface result extraction
// needs from Gemini's guest policy.
type bucketReporter interface {
	BucketReuseRate() (float64, bool)
}

// results extracts one Result per VM — the single extraction path for
// every evaluation setting. Daemons run on spare cores: their
// interference reaches the workload through the stalls already charged
// into step cycles (shootdowns, cache pollution), not by stealing vCPU
// time, so throughput divides by foreground cycles only.
func (e *Engine) results() []Result {
	out := make([]Result, len(e.vms))
	for i, ev := range e.vms {
		vm := ev.vm
		ts := vm.TLB.Stats()
		a := vm.Alignment()
		res := Result{
			System:              ev.cfg.System.String(),
			Workload:            ev.cfg.Workload.Name,
			Throughput:          safeDiv(float64(ev.ops), float64(ev.fg)) * 1e6,
			TLBMissesPerKAccess: safeDiv(float64(ts.Misses), float64(ev.acc)) * 1000,
			WalkCyclesPerAccess: safeDiv(float64(ts.WalkCycles), float64(ev.acc)),
			AlignedRate:         a.Rate(),
			GuestHuge:           a.GuestHuge,
			HostHuge:            a.HostHuge,
			GuestFMFI:           vm.Guest.Buddy.FMFI(mem.HugeOrder),
			MigratedPages:       vm.Guest.Stats.MigratedPages + vm.EPT.Stats.MigratedPages - ev.migBase,
			BackgroundCycles:    vm.Guest.Stats.BackgroundCycles + vm.EPT.Stats.BackgroundCycles - ev.bg0,
			Ticks:               e.m.Ticks,
		}
		if mapped := vm.Guest.MappedPages(); mapped > 0 {
			res.HugeCoverage = float64(vm.Guest.Table.Mapped2M()*mem.PagesPerHuge) / float64(mapped)
		}
		res.SwappedPages = vm.EPT.SwappedPages()
		res.SwappedOutPages = vm.EPT.Stats.SwappedOutPages
		res.SwappedInPages = vm.EPT.Stats.SwappedInPages
		if vm.Balloon != nil {
			res.BalloonPages = vm.Balloon.Inflated()
		}
		if ev.cfg.Workload.LatencySensitive {
			res.MeanLatency = ev.lat.Mean()
			res.P99Latency = ev.lat.P99()
		}
		if br, ok := ev.gp.(bucketReporter); ok {
			if rate, any := br.BucketReuseRate(); any {
				res.BucketReuseRate = rate
			}
		}
		out[i] = res
	}
	if r := e.cfg.Trace; r != nil {
		// The recorder is run-scoped, not VM-scoped: every VM's result
		// carries the same timeline and event stream (rows and events
		// are tagged with their VM).
		timeline, events := r.Samples(), r.Events()
		for i := range out {
			out[i].Timeline = timeline
			out[i].Events = events
		}
	}
	return out
}

// RunMany runs N VMs consolidated on one host with engine defaults
// (pristine memory, 768 MB guests, derived per-VM seed streams) and
// returns per-VM results in VM order. For full control — fragmented
// memory, reused VMs, custom pacing or host sizing — build an
// EngineConfig and use NewEngine directly.
func RunMany(vms []VMConfig) []Result {
	return NewEngine(EngineConfig{VMs: vms}).Run()
}
