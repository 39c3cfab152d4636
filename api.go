// Package repro is a library-level reproduction of "Making Dynamic
// Page Coalescing Effective on Virtualized Clouds" (EuroSys 2023): the
// Gemini cross-layer huge page system, the seven systems it is
// compared against, and the simulated virtualized-memory substrate
// (buddy allocators, two-level page tables, nested-paging TLB) they
// all run on.
//
// The package exposes two levels of API:
//
//   - experiment runners (Figure2, Motivation, CleanSlate, ReusedVM,
//     Breakdown, Colocated, ManyVMs, Pressure) that regenerate each figure and
//     table of the paper's evaluation on one shared job grid;
//   - the single-run primitives (Run, RunMicro, RunMany, NewEngine,
//     Systems, Workloads) for custom studies. Every run except
//     RunMicro executes on the same unified N-VM engine, described by
//     one EngineConfig: Run takes the single-VM Config, and
//     ColocatedPair builds the two-VM §6.5 setting for NewEngine.
//
// Everything is deterministic for a given seed. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for measured-vs-paper results.
package repro

import (
	"io"

	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported experiment types. See package repro/internal/sim for
// field documentation.
type (
	// Config describes one simulation run.
	Config = sim.Config
	// Result reports one simulation run.
	Result = sim.Result
	// System identifies a page-management system under test.
	System = sim.System
	// MicroConfig describes one Figure 2 micro-benchmark point.
	MicroConfig = sim.MicroConfig
	// MicroResult reports one Figure 2 point.
	MicroResult = sim.MicroResult
	// WorkloadSpec describes one application model (Table 2).
	WorkloadSpec = workload.Spec
	// VMConfig describes one VM of an N-VM engine run.
	VMConfig = sim.VMConfig
	// EngineConfig describes a full N-VM engine run.
	EngineConfig = sim.EngineConfig
	// FragSpec describes one fragmentation pre-pass.
	FragSpec = sim.FragSpec
)

// The evaluated systems, in the paper's figure order, plus the two
// extension systems (FHPM, Segmentation). Values come from the system
// registry, so they are vars rather than consts; they are stable for a
// given build.
var (
	HostBVMB            = sim.HostBVMB
	Misalignment        = sim.Misalignment
	THP                 = sim.THP
	CAPaging            = sim.CAPaging
	Ranger              = sim.Ranger
	HawkEye             = sim.HawkEye
	Ingens              = sim.Ingens
	Gemini              = sim.Gemini
	GeminiNoBucket      = sim.GeminiNoBucket
	GeminiBucketOnly    = sim.GeminiBucketOnly
	GeminiStaticTimeout = sim.GeminiStaticTimeout
	GeminiNoPrealloc    = sim.GeminiNoPrealloc
	FHPM                = sim.FHPM
	Segmentation        = sim.Segmentation
)

// Flight-recorder re-exports. A TraceRecorder attached to Config.Trace
// (or Options.Trace, EngineConfig.Trace) records
// structured events and per-tick samples during the run; the run's
// Result carries them in Timeline and Events. See package
// repro/internal/trace for the schema and determinism contract.
type (
	// TraceConfig sizes the recorder (sample stride, ring capacity).
	TraceConfig = trace.Config
	// TraceRecorder is the flight recorder shared by all layers of a run.
	TraceRecorder = trace.Recorder
	// TraceEvent is one structured trace event.
	TraceEvent = trace.Event
	// TraceEventType enumerates the event kinds (Promote, Demote, ...).
	TraceEventType = trace.EventType
	// TraceSample is one time-series snapshot of a VM or the host.
	TraceSample = trace.Sample
)

// NewTraceRecorder builds a flight recorder; zero TraceConfig fields
// take the package defaults.
func NewTraceRecorder(cfg TraceConfig) *TraceRecorder { return trace.NewRecorder(cfg) }

// WriteTraceEvents writes events as JSONL, one event object per line.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	return trace.WriteEventsJSONL(w, events)
}

// ReadTraceEvents decodes a JSONL event stream.
func ReadTraceEvents(r io.Reader) ([]TraceEvent, error) { return trace.ReadEventsJSONL(r) }

// WriteTraceSeries writes the sample series as CSV with a header row.
func WriteTraceSeries(w io.Writer, samples []TraceSample) error {
	return trace.WriteSeriesCSV(w, samples)
}

// ReadTraceSeries decodes a series CSV written by WriteTraceSeries.
func ReadTraceSeries(r io.Reader) ([]TraceSample, error) { return trace.ReadSeriesCSV(r) }

// Run executes one experiment configuration.
func Run(cfg Config) Result { return sim.Run(cfg) }

// RunMicro executes one Figure 2 micro-benchmark point.
func RunMicro(mc MicroConfig) MicroResult { return sim.RunMicro(mc) }

// ColocatedPair returns the two-VM consolidation setting of §6.5 —
// workload a in VM 0 and b in VM 1, both under sys — as an
// EngineConfig with the consolidation fragmentation target and seed
// streams pinned. Set Fragmented, Requests, Audit or Trace on it, then
// run it with NewEngine(...).Run().
func ColocatedPair(sys System, a, b WorkloadSpec, seed int64) EngineConfig {
	return sim.ColocatedPair(sys, a, b, seed)
}

// RunMany executes one N-VM engine run with default pacing and host
// sizing, returning per-VM results in VM order. For full control
// (seeds, fragmentation, audit), build a sim Engine via NewEngine.
func RunMany(vms []VMConfig) []Result { return sim.RunMany(vms) }

// NewEngine builds the unified N-VM simulation engine for an explicit
// configuration; Engine.Run returns per-VM results.
func NewEngine(ec EngineConfig) *sim.Engine { return sim.NewEngine(ec) }

// Systems returns the figure-grade evaluated systems: the paper's
// eight plus the FHPM and Segmentation extensions, in figure order.
func Systems() []System { return sim.Systems() }

// AllSystems returns every registered system, including the GEMINI
// ablation variants, in registry order.
func AllSystems() []System { return sim.AllSystems() }

// SystemByName resolves a system display name ("GEMINI", "THP", ...).
func SystemByName(name string) (System, error) { return sim.SystemByName(name) }

// Workloads returns the Table 2 application models.
func Workloads() []WorkloadSpec { return workload.Table2() }

// WorkloadByName resolves a workload name ("redis", "specjbb", ...).
func WorkloadByName(name string) (WorkloadSpec, error) { return workload.ByName(name) }
