// Package fleet is the cluster layer over the single-host machine
// model: many simulated hosts, a deterministic VM arrival/departure
// stream (events.go), and an online 2D vector-bin-packing placement
// scheduler over CPU x RAM with pluggable policies (schedule.go) —
// first-fit, best-fit by residual-norm scoring, and a
// fragmentation-aware policy that reads each host's FMFI and
// huge-page coverage before placing. A rebalance trigger live-migrates
// VMs between hosts, reusing the machine layer's MigratedPages
// accounting, and per-host flight-recorder shards merge in host order
// so traced fleet runs are byte-identical at any parallelism.
//
// Determinism contract: all scheduling happens in a sequential control
// phase per tick; hosts then step concurrently, each recording into
// its own shard, and a barrier closes the tick. Every RNG stream is
// derived from Config.Seed (the stream RNG at Seed+77, VM vm's
// workload at Seed + 1e6 + 1000*vm + 29*generation, where the
// generation counts the VM's migrations), so the same seed yields the
// same fleet twice, byte for byte.
//
// See DESIGN.md §8 for the event stream format, the placement policy
// interface, and migration trigger semantics.
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/jobs"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one fleet run.
type Config struct {
	// Hosts is the number of simulated hosts (default 4).
	Hosts int
	// HostCPU is each host's vCPU capacity (default 16, max 4096).
	HostCPU int
	// HostMemMB is each host's physical memory in MiB (default 2048,
	// max 1 MiB-of-MiB); it is also the host's RAM capacity vector.
	HostMemMB int
	// System selects the page management system every placed VM runs.
	System sim.System
	// Policy names the placement policy (PolicyNames; default
	// "first-fit").
	Policy string
	// Overcommit arms the memory-elasticity tier fleet-wide
	// (DESIGN.md §10). Zero — the default — disables it and behaves
	// exactly as before. A value ≥ 1 multiplies every host's
	// schedulable RAM capacity by the ratio (physical memory is
	// unchanged), arms each host machine's swap/reclaim tier, and
	// installs a balloon driver in every booted VM, so the scheduler
	// may admit more guest RAM than physically exists and the hosts
	// absorb the difference by ballooning and swapping. Values in
	// (0, 1) are invalid.
	Overcommit float64
	// PressurePolicy names the registered machine.PressurePolicy the
	// armed swap tiers use ("" selects the default). Requires
	// Overcommit ≥ 1.
	PressurePolicy string
	// Stream parameterises the churn generator.
	Stream StreamConfig
	// RequestsPerVMTick is the foreground requests each resident VM
	// serves per fleet tick (default 4).
	RequestsPerVMTick int
	// DrainTicks keeps the fleet ticking after the last arrival so
	// coalescing settles; departures beyond that window never fire
	// (default 32).
	DrainTicks int
	// RebalanceEvery fires the migration trigger every N ticks; 0
	// disables rebalancing (default 32; set negative for explicit off).
	RebalanceEvery int
	// RebalanceGap is the max-min RAM utilisation gap (fraction of
	// capacity) above which the trigger migrates one VM from the most
	// to the least loaded host (default 0.25).
	RebalanceGap float64
	// Audit runs the fleet and per-host invariant audits every
	// AuditEvery ticks and at completion, panicking on a violation.
	Audit bool
	// AuditEvery paces the periodic audit (default 64 ticks).
	AuditEvery int
	// Parallel is how many hosts step concurrently per tick (default
	// 1). Any value produces byte-identical results and traces.
	Parallel int
	// Seed derives every RNG stream (see the package comment).
	Seed int64
	// OnTick, when non-nil, is called once at the end of every fleet
	// tick (after the host phase and audit) with a population snapshot.
	// It runs on the control goroutine and must not mutate the fleet;
	// the fleetsim CLI uses it to drive live progress and metrics.
	// Emission changes no simulated state, so a run with OnTick set is
	// byte-identical to one without.
	OnTick func(TickInfo)
	// Trace, when non-nil, attaches the flight recorder. Each host
	// records into a private shard (run index = host id, so merged rows
	// and events carry their host); scheduler-scope events (rejections)
	// record into a control shard at run index Hosts. The fleet merges
	// all shards into this recorder in host order when the run ends.
	Trace *trace.Recorder
}

func (c Config) withDefaults() Config {
	if c.Hosts == 0 {
		c.Hosts = 4
	}
	if c.HostCPU == 0 {
		c.HostCPU = 16
	}
	if c.HostMemMB == 0 {
		c.HostMemMB = 2048
	}
	if c.Policy == "" {
		c.Policy = FirstFit{}.Name()
	}
	if c.RequestsPerVMTick == 0 {
		c.RequestsPerVMTick = 4
	}
	if c.DrainTicks == 0 {
		c.DrainTicks = 32
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 32
	}
	if c.RebalanceGap == 0 {
		c.RebalanceGap = 0.25
	}
	if c.AuditEvery == 0 {
		c.AuditEvery = 64
	}
	if c.Parallel == 0 {
		c.Parallel = 1
	}
	c.Stream = c.Stream.withDefaults()
	if c.Stream.Seed == 0 {
		c.Stream.Seed = c.Seed + 77
	}
	return c
}

// Validate reports whether the configuration describes a runnable
// fleet.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Hosts < 1 {
		return fmt.Errorf("fleet: need at least one host, have %d", d.Hosts)
	}
	if d.HostCPU < 1 || d.HostCPU > 1<<12 {
		return fmt.Errorf("fleet: host CPU capacity %d outside [1, 4096]", d.HostCPU)
	}
	if d.HostMemMB < 1 || d.HostMemMB > 1<<20 {
		return fmt.Errorf("fleet: host memory %d MB outside [1, 2^20]", d.HostMemMB)
	}
	if !sim.ValidSystem(d.System) {
		return fmt.Errorf("fleet: system %d out of range", int(d.System))
	}
	if _, err := PolicyByName(d.Policy); err != nil {
		return err
	}
	if d.RequestsPerVMTick < 0 || d.DrainTicks < 0 || d.AuditEvery < 1 {
		return fmt.Errorf("fleet: negative pacing parameter")
	}
	if d.Parallel < 0 {
		return fmt.Errorf("fleet: negative parallelism %d", d.Parallel)
	}
	if d.RebalanceGap < 0 || d.RebalanceGap > 1 {
		return fmt.Errorf("fleet: rebalance gap %v outside [0, 1]", d.RebalanceGap)
	}
	if err := d.Stream.Validate(); err != nil {
		return err
	}
	if err := sim.ValidateElasticity("fleet", d.Overcommit, d.PressurePolicy); err != nil {
		return err
	}
	for _, fl := range d.Stream.Flavors {
		if fl.CPU > d.HostCPU || fl.RAMMB > d.schedulableRAMMB() {
			return fmt.Errorf("fleet: flavor %q %+v can never fit a %d-CPU %d-MB host (overcommit %v)",
				fl.Name, fl.Demand(), d.HostCPU, d.HostMemMB, d.Overcommit)
		}
	}
	return nil
}

// schedulableRAMMB is the RAM capacity the scheduler sees per host:
// physical memory inflated by the overcommit ratio when the elasticity
// tier is armed. Host machines always get physical HostMemMB; the gap
// is what ballooning and swap absorb.
func (c Config) schedulableRAMMB() int {
	if c.Overcommit >= 1 {
		return int(float64(c.HostMemMB) * c.Overcommit)
	}
	return c.HostMemMB
}

// TickInfo is the per-tick population snapshot handed to
// Config.OnTick.
type TickInfo struct {
	// Tick is the fleet tick that just completed; Horizon is the last
	// tick the run will execute.
	Tick, Horizon uint64
	// Resident is the current VM population; the counters are
	// cumulative stream outcomes so far.
	Resident, Placed, Rejected, Departed, Migrations int
}

// host is one simulated server of the fleet.
type host struct {
	id int
	m  *machine.Machine
	// rec is the host's private recorder shard (nil untraced).
	rec *trace.Recorder
	// clock ticks the host's daemons and samples its gauges; Run arms
	// it.
	clock *sim.Clock
	// resident lists the fleet VM ids on this host, ascending.
	resident []int
	// reqs/reqCycles accumulate foreground work served here.
	reqs, reqCycles uint64
}

// liveVM is one resident VM: its booted replica and workload.
type liveVM struct {
	sim.Guest
	id     int
	flavor Flavor
	host   int
	w      *workload.Workload
	// gen counts migrations; it salts the workload seed so the rebuilt
	// replica's stream is fresh but deterministic.
	gen int
	// absorbed is the page volume this replica's inbound migration
	// copied (zero for replicas booted by an arrival); the conservation
	// audit checks the EPT books cover it.
	absorbed uint64
}

// migRecord is one completed live migration, kept for the conservation
// audit.
type migRecord struct {
	Tick  uint64
	VM    int
	From  int
	To    int
	Pages uint64
}

// Fleet is a running cluster. Build one with New, call Run once.
type Fleet struct {
	cfg    Config
	sched  *Scheduler
	hosts  []*host
	vms    map[int]*liveVM
	events []Event
	// ctl is the scheduler-scope trace shard (nil untraced).
	ctl *trace.Recorder

	// Migration accounting, audited for conservation: every page that
	// leaves a source host's books arrives on a destination's.
	pagesIn, pagesOut []uint64
	migs              []migRecord

	arrivals, placed, rejected, departed int

	// ticksRun is the horizon the completed run executed to.
	ticksRun uint64

	// dense pins every host clock to dense ticking, skipping the
	// closed-form idle tick. Results are byte-identical either way; the
	// dense loop is the reference the in-package equivalence test runs.
	dense bool
}

// New validates the configuration and builds the fleet: hosts, the
// scheduler, the materialised event stream, and trace shards.
func New(cfg Config) (*Fleet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	pol, err := PolicyByName(cfg.Policy)
	if err != nil {
		return nil, err
	}
	caps := make([]Demand, cfg.Hosts)
	for i := range caps {
		caps[i] = Demand{CPU: cfg.HostCPU, RAMMB: cfg.schedulableRAMMB()}
	}
	f := &Fleet{
		cfg:      cfg,
		sched:    NewScheduler(pol, caps),
		vms:      make(map[int]*liveVM),
		events:   GenerateStream(cfg.Stream),
		pagesIn:  make([]uint64, cfg.Hosts),
		pagesOut: make([]uint64, cfg.Hosts),
	}
	for i := 0; i < cfg.Hosts; i++ {
		h := &host{id: i}
		if cfg.Trace != nil {
			h.rec = cfg.Trace.Shard(i, fmt.Sprintf("host%d", i))
		}
		h.m = sim.NewHost(cfg.HostMemMB, cfg.Overcommit, cfg.PressurePolicy, h.rec)
		f.hosts = append(f.hosts, h)
	}
	if cfg.Trace != nil {
		f.ctl = cfg.Trace.Shard(cfg.Hosts, "sched")
	}
	return f, nil
}

// horizon is the last tick the fleet steps: the final arrival plus
// the drain window. Departures scheduled beyond the horizon never
// fire, so long-lived VMs leave a resident population in the final
// state instead of every run draining to an empty fleet.
func (f *Fleet) horizon() uint64 {
	last := uint64(0)
	for _, ev := range f.events {
		if ev.Kind == Arrive && ev.Tick > last {
			last = ev.Tick
		}
	}
	return last + uint64(f.cfg.DrainTicks)
}

// vmSeed derives the workload seed for one VM generation (see the
// package comment's seeding contract).
func (f *Fleet) vmSeed(vm, gen int) int64 {
	return f.cfg.Seed + 1_000_000 + 1000*int64(vm) + 29*int64(gen)
}

// Run executes the fleet to its horizon and returns the result. Each
// tick is a sequential control phase (departures, arrivals, rebalance
// — all scheduler state), a concurrent host phase (resident VMs serve
// requests, then the host's daemons tick and its gauges sample), and a
// barrier. Call once.
func (f *Fleet) Run() Result {
	horizon := f.horizon()
	for _, h := range f.hosts {
		h.clock = sim.NewClock(h.m, h.rec, func() { f.captureHost(h) }, f.dense)
	}
	// Hosts share no mutable state (each has its own machine, shard and
	// resident VMs; scheduling already happened in the control phase),
	// so stepping them Parallel at a time yields identical results.
	stepHost := func(i int) { f.stepHost(f.hosts[i]) }
	next := 0
	for tick := uint64(1); tick <= horizon; tick++ {
		f.setTraceNow(tick)
		for next < len(f.events) && f.events[next].Tick == tick {
			ev := f.events[next]
			next++
			if ev.Kind == Depart {
				f.depart(ev)
			} else {
				f.arrive(ev)
			}
		}
		if f.cfg.RebalanceEvery > 0 && tick%uint64(f.cfg.RebalanceEvery) == 0 {
			f.rebalance(tick)
		}
		jobs.ForEach(len(f.hosts), f.cfg.Parallel, hostName, stepHost)
		if f.cfg.Audit && tick%uint64(f.cfg.AuditEvery) == 0 {
			f.runAudit()
		}
		if f.cfg.OnTick != nil {
			f.cfg.OnTick(TickInfo{
				Tick: tick, Horizon: horizon,
				Resident: len(f.vms), Placed: f.placed, Rejected: f.rejected,
				Departed: f.departed, Migrations: f.sched.Stats.Migrations,
			})
		}
	}
	f.ticksRun = horizon
	for _, h := range f.hosts {
		h.clock.Finish()
	}
	if f.cfg.Audit {
		f.runAudit()
	}
	if f.cfg.Trace != nil {
		f.cfg.Trace.MergeShards()
	}
	return f.result()
}

// setTraceNow stamps the control-phase tick onto every shard so
// arrival/departure/migration events carry the tick they fired on
// (each host's machine re-stamps its shard when it ticks).
func (f *Fleet) setTraceNow(tick uint64) {
	if f.cfg.Trace == nil {
		return
	}
	for _, h := range f.hosts {
		h.rec.SetNow(tick)
	}
	f.ctl.SetNow(tick)
}

// arrive places one arriving VM and, when accepted, boots it on the
// chosen host.
func (f *Fleet) arrive(ev Event) {
	f.arrivals++
	d := ev.Flavor.Demand()
	hi, ok := f.sched.Place(ev.VM, d, f.fragInfos())
	if !ok {
		f.rejected++
		if f.ctl != nil {
			f.ctl.Handle(ev.VM, "fleet").Event(trace.EvVMReject, 0, 0,
				ev.Flavor.CPU, ev.Flavor.GuestPages(), ev.Flavor.Name)
		}
		return
	}
	f.placed++
	h := f.hosts[hi]
	v := f.boot(ev.VM, ev.Flavor, h, 0)
	f.vms[ev.VM] = v
	h.resident = insertSorted(h.resident, ev.VM)
	if h.rec != nil {
		h.rec.Handle(ev.VM, "fleet").Event(trace.EvVMArrive, 0, 0,
			ev.Flavor.CPU, ev.Flavor.GuestPages(), ev.Flavor.Name)
	}
}

// boot boots VM id on host h through sim.BootGuest (the configured
// system's stack, trace handles into the host's shard) and builds the
// flavor's workload from its derived seed.
func (f *Fleet) boot(id int, fl Flavor, h *host, gen int) *liveVM {
	g := sim.BootGuest(h.m, f.cfg.System, fl.GuestPages(), h.rec, id)
	w := workload.New(fl.Workload, g.VM, f.vmSeed(id, gen))
	return &liveVM{Guest: g, id: id, flavor: fl, host: h.id, w: w, gen: gen}
}

// depart tears one VM down: the guest process exits, the host frames
// free back to the host buddy, and the reservation releases. A
// departure whose arrival was rejected is a no-op.
func (f *Fleet) depart(ev Event) {
	v, ok := f.vms[ev.VM]
	if !ok {
		return
	}
	h := f.hosts[v.host]
	v.w.Teardown()
	freed := h.m.RemoveVM(v.VM)
	if _, ok := f.sched.Release(ev.VM); !ok {
		panic(fmt.Sprintf("fleet: resident VM %d had no reservation", ev.VM))
	}
	h.resident = removeSorted(h.resident, ev.VM)
	delete(f.vms, ev.VM)
	f.departed++
	if h.rec != nil {
		h.rec.Handle(ev.VM, "fleet").Event(trace.EvVMDepart, 0, 0,
			v.flavor.CPU, freed, v.flavor.Name)
	}
}

// rebalance fires the migration trigger: when the RAM utilisation gap
// between the most and least loaded hosts exceeds RebalanceGap, the
// first (lowest-id) VM on the most loaded host that fits the least
// loaded one live-migrates there. One migration per trigger keeps the
// fleet's background traffic bounded and the decision deterministic.
func (f *Fleet) rebalance(tick uint64) {
	loads := f.sched.Hosts()
	hi, lo := 0, 0
	for i, l := range loads {
		if ramUtil(l) > ramUtil(loads[hi]) {
			hi = i
		}
		if ramUtil(l) < ramUtil(loads[lo]) {
			lo = i
		}
	}
	if hi == lo || ramUtil(loads[hi])-ramUtil(loads[lo]) <= f.cfg.RebalanceGap {
		return
	}
	for _, id := range f.hosts[hi].resident {
		if loads[lo].Fits(f.vms[id].flavor.Demand()) {
			f.migrate(tick, id, lo)
			return
		}
	}
}

func ramUtil(l HostLoad) float64 {
	return float64(l.Used.RAMMB) / float64(l.Cap.RAMMB)
}

// migrate live-migrates VM id to host dst: the source replica's mapped
// EPT pages are the copy volume, the source host frees them (RemoveVM),
// and the destination boots a fresh replica that absorbs the copy cost
// into its MigratedPages accounting — so pages leave the source host's
// books and arrive on the destination's, which the conservation audit
// checks.
func (f *Fleet) migrate(tick uint64, id, dst int) {
	v := f.vms[id]
	src := v.host
	pages := v.VM.EPT.MappedPages()
	if err := f.sched.Migrate(id, dst); err != nil {
		panic(err)
	}
	f.hosts[src].m.RemoveVM(v.VM)
	f.hosts[src].resident = removeSorted(f.hosts[src].resident, id)
	if f.hosts[src].rec != nil {
		f.hosts[src].rec.Handle(id, "fleet").Event(trace.EvMigration, 0, 0, 0, pages,
			fmt.Sprintf("out:host%d->host%d", src, dst))
	}
	nv := f.boot(id, v.flavor, f.hosts[dst], v.gen+1)
	nv.VM.AbsorbMigration(pages)
	nv.absorbed = pages
	f.vms[id] = nv
	f.hosts[dst].resident = insertSorted(f.hosts[dst].resident, id)
	if f.hosts[dst].rec != nil {
		f.hosts[dst].rec.Handle(id, "fleet").Event(trace.EvMigration, 0, 0, 0, pages,
			fmt.Sprintf("in:host%d->host%d", src, dst))
	}
	f.pagesOut[src] += pages
	f.pagesIn[dst] += pages
	f.migs = append(f.migs, migRecord{Tick: tick, VM: id, From: src, To: dst, Pages: pages})
}

// stepHost runs one host's tick: every resident VM serves its request
// quantum, then the host's clock advances one tick (daemons, gauge
// samples on the stride).
func (f *Fleet) stepHost(h *host) {
	for _, id := range h.resident {
		// A VM's whole per-tick quantum runs through the vectorized
		// StepN core in one call; VMs still run strictly in resident
		// order, so host frame allocation is order-identical to the
		// per-request loop.
		h.reqCycles += f.vms[id].w.StepN(f.cfg.RequestsPerVMTick, nil)
		h.reqs += uint64(f.cfg.RequestsPerVMTick)
	}
	// Requests arrive every tick, but a host that is empty or fully
	// quiescent between arrivals still takes the closed-form tick.
	h.clock.Advance(1)
}

// hostName identifies host i in a re-raised host-step panic.
func hostName(i int) string { return fmt.Sprintf("host %d", i) }

// fragInfos snapshots every host's placement signals: host-buddy FMFI
// at the huge order, EPT huge-page coverage over resident VMs, and the
// host's swapped-out page total (zero on non-overcommitted fleets).
func (f *Fleet) fragInfos() []FragInfo {
	out := make([]FragInfo, len(f.hosts))
	for i, h := range f.hosts {
		out[i] = FragInfo{
			FMFI:         h.m.HostBuddy.FMFI(mem.HugeOrder),
			HugeCoverage: f.hostCoverage(h),
			SwappedPages: f.hostSwapped(h),
		}
	}
	return out
}

// hostSwapped totals the pages a host's resident VMs currently have
// swapped out.
func (f *Fleet) hostSwapped(h *host) uint64 {
	var n uint64
	for _, id := range h.resident {
		n += f.vms[id].VM.EPT.SwappedPages()
	}
	return n
}

// hostCoverage is the host's EPT huge-page coverage: huge-mapped pages
// over mapped pages, summed across resident VMs. Zero with no mapped
// pages.
func (f *Fleet) hostCoverage(h *host) float64 {
	var mapped, huge uint64
	for _, id := range h.resident {
		vm := f.vms[id].VM
		mapped += vm.EPT.MappedPages()
		huge += vm.EPT.Table.Mapped2M() * mem.PagesPerHuge
	}
	if mapped == 0 {
		return 0
	}
	return float64(huge) / float64(mapped)
}

// runAudit audits the fleet's own bookkeeping, every host machine, and
// every resident auditable coordinator, panicking with the full report
// on the first violation (matching the engine's audit behaviour).
func (f *Fleet) runAudit() {
	vs := f.CheckInvariants()
	for _, h := range f.hosts {
		vs = append(vs, audit.Prefix(h.m.CheckInvariants(), fmt.Sprintf("host%d/", h.id))...)
		for _, id := range h.resident {
			if a, ok := f.vms[id].Coord.(audit.Auditable); ok {
				vs = append(vs, audit.Prefix(a.CheckInvariants(), fmt.Sprintf("host%d/vm%d/", h.id, id))...)
			}
		}
	}
	if len(vs) > 0 {
		panic("fleet audit failed:\n" + audit.Report(vs))
	}
}

// insertSorted adds id to an ascending id list.
func insertSorted(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	ids = append(ids, 0)
	copy(ids[i+1:], ids[i:])
	ids[i] = id
	return ids
}

// removeSorted deletes id from an ascending id list.
func removeSorted(ids []int, id int) []int {
	i := sort.SearchInts(ids, id)
	if i >= len(ids) || ids[i] != id {
		panic(fmt.Sprintf("fleet: VM %d not resident", id))
	}
	return append(ids[:i], ids[i+1:]...)
}

// HostResult summarises one host's final state.
type HostResult struct {
	// Host is the host id.
	Host int
	// VMs is the resident VM count at the end of the run.
	VMs int
	// UsedCPU/CapCPU and UsedRAMMB/CapRAMMB are the scheduler's final
	// committed load and capacity.
	UsedCPU, CapCPU     int
	UsedRAMMB, CapRAMMB int
	// FreePages is the host buddy's free frame count.
	FreePages uint64
	// FMFI is the host buddy's fragmentation index at the huge order.
	FMFI float64
	// HugeCoverage is the EPT huge-page coverage over resident VMs.
	HugeCoverage float64
	// PagesIn/PagesOut are the live-migration page flows through this
	// host.
	PagesIn, PagesOut uint64
	// SwappedPages and BalloonPages are the host's final elasticity
	// gauges (DESIGN.md §10): pages its resident VMs have on the swap
	// device and pages donated through their balloons. Always zero on
	// non-overcommitted fleets.
	SwappedPages, BalloonPages uint64
}

// Result is one fleet run's outcome.
type Result struct {
	// Policy and System name the placement policy and page management
	// system.
	Policy, System string
	// Hosts is the fleet size.
	Hosts int
	// Arrivals/Placed/Rejected/Departed/Migrations count stream
	// outcomes; ResidentVMs is the population at the end of the run.
	Arrivals, Placed, Rejected, Departed int
	Migrations, ResidentVMs              int
	// MigratedPages is the total pages live-migrated between hosts.
	MigratedPages uint64
	// Requests and RequestCycles total the foreground work served;
	// Throughput is requests per million foreground cycles.
	Requests, RequestCycles uint64
	Throughput              float64
	// MeanHostFMFI averages the final per-host FMFI; HugeCoverage is
	// the final fleet-wide EPT huge-page coverage.
	MeanHostFMFI float64
	HugeCoverage float64
	// SwappedPages and BalloonPages total the fleet's final elasticity
	// gauges across resident VMs (zero on non-overcommitted fleets);
	// SwappedOutPages is their cumulative swap-out traffic.
	SwappedPages    uint64
	SwappedOutPages uint64
	BalloonPages    uint64
	// PerHost holds the final per-host summaries in host order.
	PerHost []HostResult
	// Timeline and Events carry the merged flight-recorder data when
	// the run was traced; nil otherwise. Sample rows use VM = -(1+host)
	// for host-allocator scopes (so per-host series survive merging)
	// and the fleet VM id for VM scopes; the Run tag is the host id
	// (Hosts for scheduler-scope events).
	Timeline []trace.Sample
	Events   []trace.Event
	// Dropped counts trace events lost to ring wraparound.
	Dropped uint64
	// Ticks is the fleet-tick horizon the run executed.
	Ticks uint64
}

// result extracts the run's Result.
func (f *Fleet) result() Result {
	r := Result{
		Policy:        f.cfg.Policy,
		System:        f.cfg.System.String(),
		Hosts:         f.cfg.Hosts,
		Arrivals:      f.arrivals,
		Placed:        f.placed,
		Rejected:      f.rejected,
		Departed:      f.departed,
		Migrations:    f.sched.Stats.Migrations,
		ResidentVMs:   len(f.vms),
		MigratedPages: sum(f.pagesIn),
		Ticks:         f.ticksRun,
	}
	loads := f.sched.Hosts()
	var mapped, huge uint64
	for i, h := range f.hosts {
		r.Requests += h.reqs
		r.RequestCycles += h.reqCycles
		hr := HostResult{
			Host:         h.id,
			VMs:          len(h.resident),
			UsedCPU:      loads[i].Used.CPU,
			CapCPU:       loads[i].Cap.CPU,
			UsedRAMMB:    loads[i].Used.RAMMB,
			CapRAMMB:     loads[i].Cap.RAMMB,
			FreePages:    h.m.HostBuddy.FreePages(),
			FMFI:         h.m.HostBuddy.FMFI(mem.HugeOrder),
			HugeCoverage: f.hostCoverage(h),
			PagesIn:      f.pagesIn[i],
			PagesOut:     f.pagesOut[i],
		}
		r.MeanHostFMFI += hr.FMFI
		for _, id := range h.resident {
			vm := f.vms[id].VM
			mapped += vm.EPT.MappedPages()
			huge += vm.EPT.Table.Mapped2M() * mem.PagesPerHuge
			hr.SwappedPages += vm.EPT.SwappedPages()
			r.SwappedOutPages += vm.EPT.Stats.SwappedOutPages
			if b := vm.Balloon; b != nil {
				hr.BalloonPages += b.Inflated()
			}
		}
		r.SwappedPages += hr.SwappedPages
		r.BalloonPages += hr.BalloonPages
		r.PerHost = append(r.PerHost, hr)
	}
	if len(f.hosts) > 0 {
		r.MeanHostFMFI /= float64(len(f.hosts))
	}
	if mapped > 0 {
		r.HugeCoverage = float64(huge) / float64(mapped)
	}
	if r.RequestCycles > 0 {
		r.Throughput = float64(r.Requests) / float64(r.RequestCycles) * 1e6
	}
	if rec := f.cfg.Trace; rec != nil {
		r.Timeline = rec.Samples()
		r.Events = rec.Events()
		r.Dropped = rec.Dropped()
	}
	return r
}

func sum(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

// Progress returns the run's simulated ticks and the gauges a progress
// line quotes for it: the mean host FMFI and the huge-page coverage.
func (r Result) Progress() (ticks uint64, gauges string) {
	return r.Ticks, sim.ProgressGauges(r.MeanHostFMFI, r.HugeCoverage)
}

// Format renders the result as the stable plain-text report the
// fleetsim CLI prints and the determinism golden locks.
func (r Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: policy=%s system=%s hosts=%d\n", r.Policy, r.System, r.Hosts)
	fmt.Fprintf(&b, "arrivals=%d placed=%d rejected=%d departed=%d resident=%d\n",
		r.Arrivals, r.Placed, r.Rejected, r.Departed, r.ResidentVMs)
	fmt.Fprintf(&b, "migrations=%d migrated_pages=%d\n", r.Migrations, r.MigratedPages)
	fmt.Fprintf(&b, "requests=%d throughput=%.4f req/Mcycle\n", r.Requests, r.Throughput)
	fmt.Fprintf(&b, "mean_host_fmfi=%.4f huge_coverage=%.4f\n", r.MeanHostFMFI, r.HugeCoverage)
	// The elasticity line appears only when the tier ever acted, so
	// reports (and goldens) from non-overcommitted runs are unchanged.
	if r.SwappedPages > 0 || r.SwappedOutPages > 0 || r.BalloonPages > 0 {
		fmt.Fprintf(&b, "swapped_pages=%d swapped_out=%d balloon_pages=%d\n",
			r.SwappedPages, r.SwappedOutPages, r.BalloonPages)
	}
	fmt.Fprintf(&b, "%-6s %4s %9s %13s %11s %8s %8s %10s %10s\n",
		"host", "vms", "cpu", "ram_mb", "free_pages", "fmfi", "cov", "pages_in", "pages_out")
	for _, h := range r.PerHost {
		fmt.Fprintf(&b, "%-6s %4d %9s %13s %11d %8.4f %8.4f %10d %10d\n",
			fmt.Sprintf("host%d", h.Host), h.VMs,
			fmt.Sprintf("%d/%d", h.UsedCPU, h.CapCPU),
			fmt.Sprintf("%d/%d", h.UsedRAMMB, h.CapRAMMB),
			h.FreePages, h.FMFI, h.HugeCoverage, h.PagesIn, h.PagesOut)
	}
	return b.String()
}

// Run builds and runs a fleet in one call.
func Run(cfg Config) (Result, error) {
	f, err := New(cfg)
	if err != nil {
		return Result{}, err
	}
	return f.Run(), nil
}
