// Package sim assembles machine, policies, workloads, and metrics
// into runnable experiments matching the paper's evaluation settings:
// clean-slate VM (§6.2), reused VM (§6.3), fragmented or pristine
// memory, and collocated VMs (§6.5). Each run is deterministic for a
// given seed.
//
// All settings execute on the unified N-VM Engine (engine.go) and are
// described by one EngineConfig: Config is the single-VM front door
// that Run translates, ColocatedPair builds the two-VM §6.5 setting,
// and RunMany runs N VMs with engine defaults. The host stack under
// the engine — NewHost, BootGuest, Clock and the gauge sampler — is
// exported because the fleet layer runs its hosts through it too.
//
// See DESIGN.md §3 (per-experiment index) for which entry point backs
// each figure and DESIGN.md §5 for the determinism contract.
package sim

import (
	_ "repro/internal/core" // registers GEMINI and its ablations
	"repro/internal/machine"
	_ "repro/internal/policy" // registers the baselines, FHPM, Segmentation
	"repro/internal/sysreg"
	"repro/internal/trace"
	"repro/internal/workload"
)

// System identifies one registered page-management system. The
// registry (package sysreg) owns the name set and ordering; this
// package only pins handles for the systems its tests and callers
// reference by identifier.
type System = sysreg.System

// SystemDef describes one registered system; new systems register one
// from their own package (see sysreg.Register) and need no edits here.
type SystemDef = sysreg.SystemDef

// Registered system handles, in registry rank order. These resolve
// after every imported package's registrations have run, so they are
// ordinary package variables rather than constants.
var (
	// HostBVMB uses base pages at both layers.
	HostBVMB = sysreg.MustByName("Host-B-VM-B")
	// Misalignment backs base-page guests with huge host pages only.
	Misalignment = sysreg.MustByName("Misalignment")
	// THP runs Linux transparent huge pages at both layers.
	THP = sysreg.MustByName("THP")
	// CAPaging runs contiguity-aware paging at both layers.
	CAPaging = sysreg.MustByName("CA-paging")
	// Ranger runs Translation Ranger at both layers.
	Ranger = sysreg.MustByName("Trans-ranger")
	// HawkEye runs HawkEye at both layers.
	HawkEye = sysreg.MustByName("HawkEye")
	// Ingens runs Ingens at both layers.
	Ingens = sysreg.MustByName("Ingens")
	// Gemini is the paper's system.
	Gemini = sysreg.MustByName("GEMINI")
	// GeminiNoBucket disables the huge bucket (EMA/HB only), the
	// first half of the Figure 16 breakdown.
	GeminiNoBucket = sysreg.MustByName("GEMINI-EMA/HB")
	// GeminiBucketOnly disables EMA/HB/promoter (bucket only), the
	// second half of the Figure 16 breakdown.
	GeminiBucketOnly = sysreg.MustByName("GEMINI-bucket")
	// GeminiStaticTimeout freezes the booking timeout (ablation).
	GeminiStaticTimeout = sysreg.MustByName("GEMINI-static-timeout")
	// GeminiNoPrealloc disables huge preallocation (ablation).
	GeminiNoPrealloc = sysreg.MustByName("GEMINI-no-prealloc")
	// FHPM promotes at fine subregion granularity in the guest and
	// drives host coalescing explicitly (Li et al., PAPERS.md).
	FHPM = sysreg.MustByName("FHPM")
	// Segmentation translates through a flat segment table: depth-1
	// walks, costly VMA growth (Teabe et al., PAPERS.md).
	Segmentation = sysreg.MustByName("Segmentation")
)

// Systems lists the evaluated figure systems in registry rank order:
// the paper's eight plus every figure system registered since.
func Systems() []System { return sysreg.Figure() }

// AllSystems lists every registered system, ablations included.
func AllSystems() []System { return sysreg.All() }

// SystemByName resolves a display name; unknown names get an error
// listing every valid name.
func SystemByName(name string) (System, error) { return sysreg.ByName(name) }

// Def returns a registered system's definition (for metadata such as
// Coordinated). Panics on out-of-range systems; gate with ValidSystem.
func Def(sys System) SystemDef { return sysreg.Def(sys) }

// Config is the single-VM front door: it describes one clean-slate or
// reused VM run (§6.2, §6.3) and becomes a one-VM EngineConfig through
// engineConfig, which is also where its defaults live.
type Config struct {
	// System selects the page management system under test.
	System System
	// Workload selects the application model.
	Workload workload.Spec
	// Fragmented pre-fragments guest and host memory (§6.1).
	Fragmented bool
	// FragTarget is the FMFI the fragmenter drives toward
	// (default 0.96).
	FragTarget float64
	// ReusedVM runs the SVM predecessor to completion first (§6.3).
	ReusedVM bool
	// GuestMemMB and HostMemMB size the memories
	// (defaults 1024 and 2560).
	GuestMemMB int
	HostMemMB  int
	// Requests is the measured request count (default 6000).
	Requests int
	// RequestsPerTick paces the background daemons (default 64).
	RequestsPerTick int
	// WarmupRequests run before measurement (default Requests).
	WarmupRequests int
	// RecoverEveryTicks paces fragmentation recovery: one huge region
	// per layer returns every N ticks (default 1). Recovery far
	// below footprint keeps huge-page supply scarce for the whole
	// run, as the paper's fragmented setting does.
	RecoverEveryTicks int
	// Audit runs the full cross-layer invariant audit every AuditEvery
	// daemon ticks and at run completion, panicking with a report on
	// the first violation.
	Audit bool
	// AuditEvery paces the periodic audit (default 32 ticks).
	AuditEvery int
	// Seed drives all randomness.
	Seed int64
	// Trace, when non-nil, records this run's flight-recorder data:
	// structured events from every layer and periodic gauge samples.
	// The run fills Result.Timeline and Result.Events from it. Leave
	// nil (the default) for zero-overhead untraced runs. A recorder
	// must not be shared by concurrent runs directly; give each run a
	// private shard (trace.Recorder.Shard) and merge after they all
	// finish, as the experiment grid does.
	Trace *trace.Recorder
}

// engineConfig builds the one-VM EngineConfig, applying the defaults
// in which the single-VM setting differs from the engine's: a 1024 MB
// guest, a 2560 MB host and 6000 requests. Every other zero field
// takes the engine default, which is the same value. VM 0's derived
// seed streams coincide with the historic single-VM streams, so no
// overrides are needed.
func (c Config) engineConfig() EngineConfig {
	orDefault := func(v, def int) int {
		if v == 0 {
			return def
		}
		return v
	}
	return EngineConfig{
		VMs: []VMConfig{{
			System:     c.System,
			Workload:   c.Workload,
			GuestMemMB: orDefault(c.GuestMemMB, 1024),
			ReusedVM:   c.ReusedVM,
		}},
		HostMemMB:         orDefault(c.HostMemMB, 2560),
		Fragmented:        c.Fragmented,
		FragTarget:        c.FragTarget,
		Requests:          orDefault(c.Requests, 6000),
		RequestsPerTick:   c.RequestsPerTick,
		WarmupRequests:    c.WarmupRequests,
		RecoverEveryTicks: c.RecoverEveryTicks,
		Audit:             c.Audit,
		AuditEvery:        c.AuditEvery,
		Seed:              c.Seed,
		Trace:             c.Trace,
	}
}

// Validate reports whether the configuration describes a runnable
// experiment: its one-VM EngineConfig must pass EngineConfig.Validate.
// Run panics on an invalid configuration; callers wanting an error
// instead should Validate first.
func (c Config) Validate() error { return c.engineConfig().Validate() }

// Result reports one run.
type Result struct {
	System   string
	Workload string

	// Throughput is requests per million foreground cycles.
	Throughput float64
	// MeanLatency and P99Latency are request latencies in cycles
	// (zero for non-latency-reporting workloads).
	MeanLatency float64
	P99Latency  float64

	// TLBMissesPerKAccess is TLB misses per thousand accesses.
	TLBMissesPerKAccess float64
	// WalkCyclesPerAccess is mean page-walk cycles per access.
	WalkCyclesPerAccess float64

	// AlignedRate is the fraction of huge pages that are well-aligned
	// at the end of the run (the Tables 1/3/4 metric).
	AlignedRate float64
	GuestHuge   uint64
	HostHuge    uint64

	// GuestFMFI is the final guest fragmentation index.
	GuestFMFI float64
	// MigratedPages counts migration work across both layers.
	MigratedPages uint64
	// BackgroundCycles counts daemon work across both layers.
	BackgroundCycles uint64
	// BucketReuseRate is reused/taken for Gemini's bucket (§6.3).
	BucketReuseRate float64

	// HugeCoverage is the fraction of the VM's mapped guest pages
	// backed by huge mappings at the end of the run.
	HugeCoverage float64

	// Elasticity gauges (DESIGN.md §10); all zero unless
	// EngineConfig.Overcommit armed the swap tier. SwappedPages and
	// BalloonPages are end-of-run gauges (pages currently on the swap
	// device / currently donated through the balloon); SwappedOutPages
	// and SwappedInPages are cumulative EPT swap traffic.
	SwappedPages    uint64
	SwappedOutPages uint64
	SwappedInPages  uint64
	BalloonPages    uint64
	// Ticks is the number of machine ticks the run executed; telemetry
	// uses it for ticks-per-second run-stats.
	Ticks uint64

	// Timeline and Events carry the flight-recorder data when the run
	// was traced (Config.Trace / EngineConfig.Trace); both are nil for
	// untraced runs. Timeline is the decimated gauge series (one row
	// per sampled tick per scope, host rows VM == -1); Events is the
	// retained structured event stream in tick order. Both reflect
	// everything in the run's recorder: a run recording into a private
	// shard sees only its own data, while runs appending sequentially
	// to one shared recorder see everything recorded so far.
	Timeline []trace.Sample
	Events   []trace.Event
}

// BuildPolicies constructs the per-layer policies for a system: the
// guest-layer policy, the host (EPT) layer policy, and the system's
// coordinator (nil for uncoordinated systems; when non-nil the caller
// must Attach it to the VM after AddVM). The engine and the fleet boot
// VMs through BootGuest instead; this stays for callers that assemble
// a machine VM by hand. Panics on an out-of-range system; gate with
// ValidSystem.
func BuildPolicies(sys System) (guest, host machine.Policy, coord sysreg.Coordinator) {
	return sysreg.Build(sys)
}

// NewTranslation constructs the system's translation mode (nil selects
// the machine layer's default nested radix walk).
func NewTranslation(sys System) machine.TranslationMode {
	return sysreg.NewTranslation(sys)
}

// ValidSystem reports whether sys names a system under test.
func ValidSystem(sys System) bool { return sysreg.Valid(sys) }

// Run executes one experiment on a one-VM engine. It panics when cfg
// fails Validate.
func Run(cfg Config) Result { return NewEngine(cfg.engineConfig()).Run()[0] }

// colocatedFragTarget and colocatedFragDensity are the consolidation
// fragmenters' FMFI target and retained-population density (the
// historical §6.5 setting).
const (
	colocatedFragTarget  = 0.9
	colocatedFragDensity = 0.4
)

// ColocatedPair returns the §6.5 consolidation setting: two VMs running
// sys on one host, workload a in VM 0 and b in VM 1. It pins what sets
// the consolidation runs apart from the engine's derived defaults: a
// softer fragmentation target (FMFI 0.9 at density 0.4, see DESIGN.md
// §2) and the historical seed streams (host fragmenter at seed+11,
// guest fragmenters at +12/+13, workloads at +21/+22). Requests is
// spelled out at its §6.5 value of 4000, so the result validates as
// returned; guests and host take the engine defaults (768 MB each,
// 2560 MB). Callers set Fragmented, Requests, Audit, Trace and the
// like on the result and run it with NewEngine.
func ColocatedPair(sys System, a, b workload.Spec, seed int64) EngineConfig {
	vm := func(spec workload.Spec, workloadSeed, fragSeed int64) VMConfig {
		return VMConfig{
			System:       sys,
			Workload:     spec,
			WorkloadSeed: workloadSeed,
			GuestFrag: &FragSpec{
				Seed: fragSeed, Target: colocatedFragTarget, Density: colocatedFragDensity,
			},
		}
	}
	return EngineConfig{
		VMs:        []VMConfig{vm(a, seed+21, seed+12), vm(b, seed+22, seed+13)},
		FragTarget: colocatedFragTarget,
		HostFrag: &FragSpec{
			Seed: seed + 11, Target: colocatedFragTarget, Density: colocatedFragDensity,
		},
		Requests: 4000,
		Seed:     seed,
	}
}
