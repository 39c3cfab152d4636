package policy

// FHPM (Li et al., "FHPM: Fine-grained Huge Page Management For
// Virtualization", PAPERS.md): huge page decisions are made at a
// fine (64 KiB subregion) granularity in the guest, and the guest
// drives host coalescing explicitly instead of hoping the two layers'
// daemons happen to agree. The reproduction models its two halves:
//
//   - the guest promotes a 2 MiB region only once most of its 64 KiB
//     subregions are populated (fine-grained utilization tracking, so
//     sparse regions neither bloat memory nor waste a huge frame);
//   - every guest promotion is pushed onto a shared queue that the
//     host-side policy drains, backing the promoted region's GPA range
//     with a huge EPT mapping — guest-driven, host-acknowledged
//     coalescing, which yields alignment by construction rather than
//     by coincidence.
//
// Both layer policies otherwise behave like base-page policies at
// fault time; all coalescing is asynchronous. The FHPM coordinator is
// the sysreg.Coordinator for the system, holding the VM reference the
// host side needs to read guest mappings.

import (
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/sysreg"
)

// FHPMParams tunes the FHPM model.
type FHPMParams struct {
	// SubregionPages is the fine-grained tracking granule in base
	// pages (16 pages = 64 KiB, the paper's subregion size).
	SubregionPages uint64
	// PopulatedFraction is the fraction of a region's subregions that
	// must hold at least one mapped page before the guest promotes.
	PopulatedFraction float64
	// ScanBudget is the number of 2 MiB regions the guest daemon
	// examines per tick.
	ScanBudget int
	// HostBudget is the number of queued promotions the host
	// acknowledges per tick.
	HostBudget int
}

// DefaultFHPMParams returns the parameters used in the reproduction.
func DefaultFHPMParams() FHPMParams {
	return FHPMParams{
		SubregionPages:    16,
		PopulatedFraction: 0.75,
		ScanBudget:        32,
		HostBudget:        8,
	}
}

// FHPM is the guest-to-host promotion queue coordinating the two layer
// policies of one VM. It implements sysreg.Coordinator.
type FHPM struct {
	P  FHPMParams
	vm *machine.VM
	// pending holds guest-virtual 2 MiB region bases the guest has
	// promoted and the host has not yet acknowledged, in promotion
	// order (deterministic drain order).
	pending []uint64
	queued  map[uint64]bool
}

// NewFHPM builds the coordinator and its two layer policies.
func NewFHPM(p FHPMParams) (*FHPM, machine.Policy, machine.Policy) {
	f := &FHPM{P: p, queued: make(map[uint64]bool)}
	return f, &fhpmGuest{co: f}, &fhpmHost{co: f}
}

// Attach implements sysreg.Coordinator.
func (f *FHPM) Attach(vm *machine.VM) { f.vm = vm }

// request enqueues a guest-promoted region for host acknowledgement.
func (f *FHPM) request(gvaBase uint64) {
	if f.queued[gvaBase] {
		return
	}
	f.queued[gvaBase] = true
	f.pending = append(f.pending, gvaBase)
}

// fhpmGuest is the guest-layer policy: base pages at fault time, and a
// background daemon that promotes densely populated regions and
// reports each promotion to the coordinator.
type fhpmGuest struct {
	co     *FHPM
	cursor int
}

// Name implements machine.Policy.
func (*fhpmGuest) Name() string { return "fhpm-guest" }

// OnFault implements machine.Policy: always base pages; population is
// what earns a region its huge frame.
func (*fhpmGuest) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// OnFaultRun implements machine.RunPolicy: every page of the run is a
// base page.
func (*fhpmGuest) OnFaultRun(_ *machine.Layer, _ uint64, n int, _ *machine.VMA) (int, uint64, bool) {
	return n, 0, false
}

// Tick implements machine.Policy: scan a bounded window of regions,
// promote the densely populated ones, and queue them for the host.
func (g *fhpmGuest) Tick(L *machine.Layer) {
	p := g.co.P
	regions := L.Space.HugeRegions()
	if len(regions) == 0 {
		return
	}
	if g.cursor >= len(regions) {
		g.cursor = 0
	}
	for i := 0; i < p.ScanBudget && i < len(regions); i++ {
		va := regions[(g.cursor+i)%len(regions)]
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		if _, isHuge, present := L.Table.LookupHugeRegion(va); isHuge {
			// Already huge: make sure the host has been asked.
			g.co.request(va)
			continue
		} else if present == 0 {
			continue
		}
		if g.populated(L, va) < g.threshold() {
			continue
		}
		if tryPromote(L, va) {
			g.co.request(va)
		}
	}
	g.cursor = (g.cursor + p.ScanBudget) % len(regions)
}

// threshold is the number of populated subregions that triggers
// promotion.
func (g *fhpmGuest) threshold() int {
	total := mem.PagesPerHuge / g.co.P.SubregionPages
	t := int(g.co.P.PopulatedFraction * float64(total))
	if t < 1 {
		t = 1
	}
	return t
}

// populated counts the 64 KiB subregions of the region at va holding
// at least one mapped page.
func (g *fhpmGuest) populated(L *machine.Layer, va uint64) int {
	spanPages := g.co.P.SubregionPages
	var seen uint64 // bitmap over at most 64 subregions (512/16 = 32)
	L.Table.ScanRange(va, va+mem.HugeSize, func(m pagetable.Mapping) bool {
		sub := (m.VA - va) / (spanPages * mem.PageSize)
		seen |= 1 << sub
		return true
	})
	n := 0
	for ; seen != 0; seen &= seen - 1 {
		n++
	}
	return n
}

// fhpmHost is the host-layer (EPT) policy: base pages at fault time,
// and a daemon that drains the coordinator's queue, backing each
// guest-promoted region huge in the EPT.
type fhpmHost struct {
	co *FHPM
}

// Name implements machine.Policy.
func (*fhpmHost) Name() string { return "fhpm-host" }

// OnFault implements machine.Policy.
func (*fhpmHost) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// OnFaultRun implements machine.RunPolicy: every page of the run is a
// base page.
func (*fhpmHost) OnFaultRun(_ *machine.Layer, _ uint64, n int, _ *machine.VMA) (int, uint64, bool) {
	return n, 0, false
}

// Tick implements machine.Policy: acknowledge queued guest promotions.
func (h *fhpmHost) Tick(L *machine.Layer) {
	co := h.co
	if co.vm == nil {
		return
	}
	for n := 0; n < co.P.HostBudget && len(co.pending) > 0; n++ {
		gva := co.pending[0]
		gfn, kind, ok := co.vm.Guest.Table.Lookup(gva)
		if !ok || kind != mem.Huge {
			// Stale request: the guest mapping went away (demotion,
			// unmap) before the host got to it.
			co.dequeue()
			continue
		}
		gpa := gfn * mem.PageSize
		if _, isHuge, present := L.Table.LookupHugeRegion(gpa); isHuge {
			co.dequeue()
			continue
		} else if present == 0 {
			if L.MapHugeEager(gpa) == nil {
				co.dequeue()
				continue
			}
		} else if tryPromote(L, gpa) {
			co.dequeue()
			continue
		}
		// No huge frame available right now: keep the request and stop
		// this quantum; compaction may free a block by the next tick.
		co.rotate()
		break
	}
}

// dequeue drops the head request.
func (f *FHPM) dequeue() {
	delete(f.queued, f.pending[0])
	f.pending = f.pending[1:]
}

// rotate moves the head request to the tail.
func (f *FHPM) rotate() {
	head := f.pending[0]
	f.pending = append(f.pending[1:], head)
}

func init() {
	sysreg.Register(sysreg.SystemDef{
		Name: "FHPM", Rank: 12, Figure: true, Coordinated: true,
		Build: func() (machine.Policy, machine.Policy, sysreg.Coordinator) {
			f, gp, hp := NewFHPM(DefaultFHPMParams())
			return gp, hp, f
		},
	})
}
