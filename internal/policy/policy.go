// Package policy implements the page-size policies the paper evaluates
// against Gemini, each plugged into a machine.Layer at the guest and/or
// host (EPT) level:
//
//   - BaseOnly and HugeOnly, the Host-B-VM-B and Misalignment baselines;
//   - THP, Linux transparent huge pages: synchronous huge faults plus a
//     khugepaged-style background collapser;
//   - Ingens (OSDI'16): asynchronous, utilization-threshold promotion;
//   - HawkEye (ASPLOS'19): access-coverage (hotness) driven promotion
//     plus zero-page deduplication;
//   - CAPaging (ISCA'20): contiguity-aware placement at fault time;
//   - Ranger (Translation Ranger, ISCA'19): aggressive page migration
//     for contiguity, with high migration overhead.
//
// Policies at the two layers run uncoordinated, which is precisely the
// huge page misalignment problem the paper identifies; Gemini (package
// core) is the coordinated alternative.
//
// See DESIGN.md §2 (system inventory, "competing systems") for each
// policy's paper provenance and parameters.
package policy

import (
	"repro/internal/machine"
	"repro/internal/mem"
)

// tryPromote promotes the region at va, preferring the free in-place
// collapse over migration. Returns true when the region is huge
// afterwards.
func tryPromote(L *machine.Layer, va uint64) bool {
	info := L.Table.InspectCollapse(va)
	if info.Present == mem.PagesPerHuge && info.Contiguous {
		return L.PromoteInPlace(va) == nil
	}
	return L.PromoteMigrate(va, nil) == nil
}

// BaseOnly never creates huge pages: every fault maps one base page.
type BaseOnly struct{}

// Name implements Policy.
func (BaseOnly) Name() string { return "base-only" }

// OnFault implements Policy.
func (BaseOnly) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}

// OnFaultRun implements machine.RunPolicy: every page of the run is a
// base page.
func (BaseOnly) OnFaultRun(_ *machine.Layer, _ uint64, n int, _ *machine.VMA) (int, uint64, bool) {
	return n, 0, false
}

// Tick implements Policy.
func (BaseOnly) Tick(*machine.Layer) {}

// HugeOnly backs every fault with a huge page when a block is
// available (falling back to base pages otherwise). Used at the host
// layer for the paper's Misalignment configuration.
type HugeOnly struct{}

// Name implements Policy.
func (HugeOnly) Name() string { return "huge-only" }

// OnFault implements Policy.
func (HugeOnly) OnFault(L *machine.Layer, va uint64, v *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Huge}
}

// Tick implements Policy.
func (HugeOnly) Tick(*machine.Layer) {}
