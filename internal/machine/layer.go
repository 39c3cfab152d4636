// Package machine assembles the substrates into a simulated
// virtualized host: a Host with physical memory and per-VM extended
// page tables (EPT), and VMs whose guests run processes with their own
// page tables over guest physical memory. Memory accesses traverse
// both layers exactly as under hardware nested paging: a guest-side
// demand fault, a host-side EPT fault, then a TLB access whose entry
// kind obeys the huge-page alignment rule from §2.2 of the paper.
//
// Page-size decisions are delegated to a per-layer Policy, the
// extension point where Linux THP, Ingens, HawkEye, CA-paging,
// Translation-ranger, and Gemini plug in.
//
// See DESIGN.md §2 (system inventory) for the machine model and
// DESIGN.md §7 (performance model) for the allocation-free access
// hot path and its walk cache (walkcache.go).
package machine

import (
	"fmt"
	"slices"

	"repro/internal/buddy"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/trace"
)

// Decision is a policy's answer to a demand fault.
type Decision struct {
	// Kind selects the mapping size to attempt. Huge falls back to
	// Base when the region cannot be huge-mapped (partially mapped,
	// out of VMA bounds, or no free block).
	Kind mem.PageSizeKind
	// Frame is a frame the policy has already carved from the layer's
	// allocator (a base frame for Kind Base, a huge-aligned block
	// start for Kind Huge). Meaningful only when Allocated is true;
	// ownership passes to the layer, which frees it if the mapping
	// cannot be installed.
	Frame uint64
	// Allocated marks Frame as valid.
	Allocated bool
	// ExtraCycles is policy-incurred foreground cost charged to the
	// faulting access (e.g. synchronous compaction attempts).
	ExtraCycles uint64
}

// Policy decides page sizes and placement for one layer, and runs that
// layer's background coalescing daemon.
type Policy interface {
	// Name identifies the policy in results.
	Name() string
	// OnFault is invoked on a demand fault for the page containing va
	// inside VMA v. The policy may allocate from L.Buddy (targeted
	// placement) and must then set Allocated.
	OnFault(L *Layer, va uint64, v *VMA) Decision
	// Tick runs one quantum of background work (scanning, promotion,
	// migration). Costs are charged to L.Stats.BackgroundCycles and
	// stalls via L.AddStall.
	Tick(L *Layer)
}

// FreeObserver is implemented by policies that intercept frees of
// whole huge-aligned frame blocks (Gemini's huge bucket). Returning
// true transfers ownership of the 512-frame block to the policy; the
// layer then does not return it to the buddy allocator.
type FreeObserver interface {
	OnFreeHugeBlock(L *Layer, frameBase uint64) bool
}

// DemotionFilter is implemented by policies that protect some huge
// mappings from memory-pressure demotion. Gemini keeps well-aligned
// huge pages and sacrifices mis-aligned ones first (§8).
type DemotionFilter interface {
	KeepHuge(L *Layer, vaBase uint64) bool
}

// LayerStats counts memory-management events in one layer.
type LayerStats struct {
	Faults              uint64 // demand faults handled
	HugeFaults          uint64 // faults satisfied with a huge mapping
	FallbackFaults      uint64 // huge attempts that fell back to base
	InPlacePromotions   uint64
	MigrationPromotions uint64
	FailedPromotions    uint64
	MigratedPages       uint64
	Splits              uint64
	DedupedPages        uint64
	CoWRefaults         uint64
	BackgroundCycles    uint64 // daemon work (promotions, scans)
	HugeMappedPages     uint64 // pages currently covered by huge mappings
	CompactedRegions    uint64 // order-9 blocks produced by kcompactd
	ReclaimedPages      uint64 // bloat pages freed under memory pressure
	SwappedOutPages     uint64 // pages paged out by the swap tier (swap.go)
	SwappedInPages      uint64 // swapped pages faulted back in
	SwapDroppedPages    uint64 // swapped pages discarded when their VMA died
}

// Layer is one translation layer: the guest process page table over
// guest physical memory, or a VM's EPT over host physical memory.
type Layer struct {
	// Name labels the layer in diagnostics ("guest" / "ept").
	Name string
	// Table holds this layer's translations.
	Table *pagetable.Table
	// Buddy allocates this layer's output frames.
	Buddy *buddy.Allocator
	// Space describes the layer's input address space.
	Space *AddressSpace
	// Policy drives page-size decisions. Never nil after NewLayer.
	Policy Policy
	// Costs is the cycle cost model.
	Costs CostModel
	// FlushRegion, when non-nil, is called with an input address
	// whose 2 MiB region's TLB entries must be shot down.
	FlushRegion func(va uint64)
	// ZeroFraction is the workload's fraction of zero pages, consumed
	// by HawkEye's dedup model. Guest layer only.
	ZeroFraction float64
	// Trace, when non-nil, receives structured flight-recorder events
	// for this layer. It stays nil unless a run opts into tracing;
	// every emission site is guarded by a nil check so the disabled
	// path constructs no event values (zero-cost-when-disabled).
	Trace *trace.Handle
	// AllocFallback, when non-nil, is invoked when a demand fault finds
	// the allocator empty; returning true means need pages were
	// recovered and the allocation should be retried. The machine's
	// swap tier installs its direct-reclaim path here on EPT layers
	// (swap.go); it stays nil otherwise, so layers without a swap tier
	// keep the fail-fast OOM panic.
	AllocFallback func(need uint64) bool

	// Stats accumulates event counts.
	Stats LayerStats

	// heat holds decayed access counts indexed by 2 MiB input region
	// (va >> HugeShift). It is a flat grow-on-demand slice rather than
	// a map because RecordAccess runs once per simulated access at each
	// layer — the hottest write in the simulator — and map hashing
	// dominated its cost. Region indices are small and dense: the EPT
	// input space is guest physical memory, and guest VMA placement is
	// a bump pointer, so the slice stays compact.
	heat    []uint64
	deduped map[uint64]bool // vpn -> was deduplicated (refault pays CoW)
	// swapped marks pages currently paged out to the swap device
	// (vpn -> true). Nil until the swap tier first evicts from this
	// layer, and probed behind len guards on the fault path, so the
	// pressure-off cost is zero (same discipline as deduped).
	swapped map[uint64]bool
	stall   uint64 // pending foreground stall cycles
	// compactCursor round-robins kcompactd's scan over frame regions.
	compactCursor uint64
}

// NewLayer builds a layer over the given allocator and address space.
func NewLayer(name string, alloc *buddy.Allocator, space *AddressSpace, pol Policy, costs CostModel) *Layer {
	if pol == nil {
		panic("machine: nil policy")
	}
	return &Layer{
		Name:    name,
		Table:   pagetable.New(),
		Buddy:   alloc,
		Space:   space,
		Policy:  pol,
		Costs:   costs,
		deduped: make(map[uint64]bool),
	}
}

// AddStall queues foreground stall cycles (TLB shootdowns, IPIs) that
// the next access through the layer will absorb.
func (L *Layer) AddStall(c uint64) { L.stall += c }

// TakeStall drains the pending stall cycles.
func (L *Layer) TakeStall() uint64 {
	s := L.stall
	L.stall = 0
	return s
}

// StallQuantum bounds how much queued stall one access absorbs:
// shootdowns and cache pollution interrupt many requests briefly, not
// one request for the whole backlog.
const StallQuantum = 1_500

// TakeStallQuantum drains at most StallQuantum pending stall cycles.
func (L *Layer) TakeStallQuantum() uint64 {
	s := L.stall
	if s > StallQuantum {
		s = StallQuantum
	}
	L.stall -= s
	return s
}

// RecordAccess bumps the heat of the 2 MiB input region containing va.
func (L *Layer) RecordAccess(va uint64) {
	L.heatBump(va >> mem.HugeShift)
}

// heatBump increments the heat counter for one region index, growing
// the slice on first touch of a new high region. The growth branch is
// cold: once a region index is in bounds it stays in bounds, so the
// steady-state cost is one bounds check and one increment.
func (L *Layer) heatBump(idx uint64) {
	if idx >= uint64(len(L.heat)) {
		grown := make([]uint64, idx+idx/4+64)
		copy(grown, L.heat)
		L.heat = grown
	}
	L.heat[idx]++
}

// Heat returns the decayed access count of the region containing va.
func (L *Layer) Heat(va uint64) uint64 {
	idx := va >> mem.HugeShift
	if idx >= uint64(len(L.heat)) {
		return 0
	}
	return L.heat[idx]
}

// DecayHeat halves all heat counters.
func (L *Layer) DecayHeat() {
	for i, v := range L.heat {
		if v != 0 {
			L.heat[i] = v >> 1
		}
	}
}

// DecayHeatN applies k halvings in one pass — the closed form of k
// DecayHeat calls with no interleaved accesses, used when the tick
// clock fast-forwards over an idle span (Machine.AdvanceTicks).
func (L *Layer) DecayHeatN(k int) {
	if k <= 0 {
		return
	}
	if k >= 64 {
		// Every counter reaches zero within 64 halvings.
		for i, v := range L.heat {
			if v != 0 {
				L.heat[i] = 0
			}
		}
		return
	}
	sh := uint(k)
	for i, v := range L.heat {
		if v != 0 {
			L.heat[i] = v >> sh
		}
	}
}

// compactionIdle reports whether RunCompaction with this watermark
// would return without scanning: the order-9 reserve is already met,
// or there is not enough free slack to migrate into. It is the single
// source for RunCompaction's early-out and for Machine.IdleHorizon's
// busy check, so the two cannot drift.
func (L *Layer) compactionIdle(lowWatermark uint64) bool {
	return L.Buddy.FreeHugeCandidates() >= lowWatermark ||
		L.Buddy.FreePages() < 2*mem.PagesPerHuge
}

// regionInVMABounds reports whether the whole 2 MiB region starting at
// hugeBase lies inside VMA v.
func regionInVMABounds(hugeBase uint64, v *VMA) bool {
	return hugeBase >= v.Start && hugeBase+mem.HugeSize <= v.End()
}

// RegionInVMA reports whether the whole 2 MiB region starting at
// hugeBase lies inside VMA v. Policies use it to filter promotion and
// huge-fault candidates.
func RegionInVMA(hugeBase uint64, v *VMA) bool {
	return regionInVMABounds(hugeBase, v)
}

// EnsureMapped installs a translation for the page containing va if
// none exists, consulting the policy. It returns the fault cost in
// cycles and whether a fault occurred.
func (L *Layer) EnsureMapped(va uint64) (uint64, bool) {
	if _, _, ok := L.Table.Lookup(va); ok {
		return 0, false
	}
	v := L.Space.Find(va)
	if v == nil {
		panic(fmt.Sprintf("machine: %s layer fault outside any VMA: %#x", L.Name, va))
	}
	d := L.Policy.OnFault(L, va, v)
	cycles := d.ExtraCycles

	if d.Kind == mem.Huge {
		hugeBase := va &^ uint64(mem.HugeSize-1)
		frame := d.Frame
		have := d.Allocated
		ok := regionInVMABounds(hugeBase, v)
		if ok && !have {
			if f, err := L.Buddy.Alloc(mem.HugeOrder); err == nil {
				frame, have = f, true
			}
		}
		if ok && have {
			if err := L.Table.Map2M(hugeBase, frame); err == nil {
				L.Stats.Faults++
				L.Stats.HugeFaults++
				L.Stats.HugeMappedPages += mem.PagesPerHuge
				// A huge mapping makes every page of the region resident,
				// so any swapped-out pages inside it come back first; the
				// faulting access pays the readahead swap-in.
				cycles += L.swapInRegion(hugeBase)
				return cycles + L.Costs.FaultBase + L.Costs.FaultHugeZero, true
			}
			// Region already partially mapped: return the block and
			// fall back to a base mapping.
			L.Buddy.Free(frame, mem.HugeOrder)
			have = false
		}
		if !ok && have {
			// Policy allocated but the region cannot be huge-mapped.
			L.Buddy.Free(frame, mem.HugeOrder)
		}
		L.Stats.FallbackFaults++
		d.Allocated = false // the huge frame is gone; allocate base below
	}

	frame := d.Frame
	if !(d.Allocated && d.Kind == mem.Base) {
		f, err := L.Buddy.Alloc(0)
		if err != nil && L.AllocFallback != nil && L.AllocFallback(1) {
			// Direct reclaim recovered memory; retry once.
			f, err = L.Buddy.Alloc(0)
		}
		if err != nil {
			panic(fmt.Sprintf("machine: %s layer out of memory (%d pages total)",
				L.Name, L.Buddy.TotalPages()))
		}
		frame = f
	}
	if err := L.Table.Map4K(va, frame); err != nil {
		panic(fmt.Sprintf("machine: Map4K(%#x): %v", va, err))
	}
	L.Stats.Faults++
	cycles += L.Costs.FaultBase
	vpn := va >> mem.PageShift
	// len guard: deduped is empty except under HawkEye, and the map
	// probe was measurable on the fault path.
	if len(L.deduped) != 0 && L.deduped[vpn] {
		delete(L.deduped, vpn)
		L.Stats.CoWRefaults++
		cycles += L.Costs.CoWFault
	}
	// Same len-guard discipline for the swap tier: a refault of a
	// swapped page pays the swap device's read latency.
	if len(L.swapped) != 0 && L.swapped[vpn] {
		delete(L.swapped, vpn)
		L.Stats.SwappedInPages++
		cycles += L.Costs.SwapInPage
		if L.Trace != nil {
			L.Trace.Event(trace.EvSwapIn, va&^uint64(mem.PageSize-1), frame, 0, 1, "refault")
		}
	}
	return cycles, true
}

// PromoteInPlace collapses the 2 MiB region containing va when its 512
// base pages are present, contiguous, and aligned. Costs are charged
// as background work plus a shootdown stall.
func (L *Layer) PromoteInPlace(va uint64) error {
	hugeBase := va &^ uint64(mem.HugeSize-1)
	if err := L.Table.Collapse(va); err != nil {
		if L.Trace != nil {
			L.Trace.Event(trace.EvCollapseFail, hugeBase, 0, mem.HugeOrder, 0, "in-place")
		}
		return err
	}
	if L.Trace != nil {
		frame, _, _ := L.Table.Lookup(hugeBase)
		L.Trace.Event(trace.EvPromote, hugeBase, frame, mem.HugeOrder, mem.PagesPerHuge, "in-place")
	}
	L.Stats.InPlacePromotions++
	L.Stats.HugeMappedPages += mem.PagesPerHuge
	L.Stats.BackgroundCycles += L.Costs.CollapseInPlace
	// An in-place collapse needs only a ranged invalidation, far
	// lighter than a migration's IPI storm.
	L.AddStall(L.Costs.Shootdown / 2)
	if L.FlushRegion != nil {
		L.FlushRegion(va)
	}
	return nil
}

// PromoteMigrate promotes the 2 MiB region containing va by allocating
// a fresh huge block, copying the present pages into it, mapping the
// region huge, and freeing the old frames — khugepaged-style collapse.
// Absent pages are zero-filled (they become mapped). targetFrame, when
// non-nil, must point to a huge-aligned block the caller already
// allocated.
func (L *Layer) PromoteMigrate(va uint64, targetFrame *uint64) error {
	hugeBase := va &^ uint64(mem.HugeSize-1)
	if v := L.Space.Find(hugeBase); v == nil || !regionInVMABounds(hugeBase, v) {
		L.Stats.FailedPromotions++
		if L.Trace != nil {
			L.Trace.Event(trace.EvCollapseFail, hugeBase, 0, mem.HugeOrder, 0, "outside-vma")
		}
		return fmt.Errorf("machine: region %#x not fully inside a VMA", hugeBase)
	}
	_, isHuge, present := L.Table.LookupHugeRegion(hugeBase)
	if isHuge {
		return nil
	}
	var block uint64
	if targetFrame != nil {
		block = *targetFrame
	} else {
		b, err := L.Buddy.Alloc(mem.HugeOrder)
		if err != nil {
			L.Stats.FailedPromotions++
			if L.Trace != nil {
				L.Trace.Event(trace.EvCollapseFail, hugeBase, 0, mem.HugeOrder, 0, "no-block")
			}
			return fmt.Errorf("machine: no huge block for migration promotion: %w", err)
		}
		block = b
	}
	// Copy and unmap the present pages.
	type old struct{ va, frame uint64 }
	olds := make([]old, 0, present)
	L.Table.ScanRange(hugeBase, hugeBase+mem.HugeSize, func(m pagetable.Mapping) bool {
		olds = append(olds, old{m.VA, m.Frame})
		return true
	})
	for _, o := range olds {
		if _, err := L.Table.Unmap4K(o.va); err != nil {
			panic(fmt.Sprintf("machine: unmap %#x during promotion: %v", o.va, err))
		}
	}
	if err := L.Table.Map2M(hugeBase, block); err != nil {
		panic(fmt.Sprintf("machine: Map2M during promotion: %v", err))
	}
	// The collapse makes the whole region resident; swapped pages
	// inside it are read back on the daemon's budget (khugepaged does
	// the same swap-in before collapsing).
	L.Stats.BackgroundCycles += L.swapInRegion(hugeBase)
	for _, o := range olds {
		L.Buddy.Free(o.frame, 0)
	}
	if L.Trace != nil {
		L.Trace.Event(trace.EvPromote, hugeBase, block, mem.HugeOrder, uint64(len(olds)), "migrate")
	}
	L.Stats.MigrationPromotions++
	L.Stats.MigratedPages += uint64(len(olds))
	L.Stats.HugeMappedPages += mem.PagesPerHuge
	L.Stats.BackgroundCycles += uint64(len(olds))*L.Costs.CopyPage +
		L.Costs.FaultHugeZero + L.Costs.CollapseInPlace
	L.AddStall(L.Costs.Shootdown + uint64(len(olds))*L.Costs.CachePollution)
	if L.FlushRegion != nil {
		L.FlushRegion(va)
	}
	return nil
}

// MapHugeEager installs a huge mapping over the untouched 2 MiB region
// containing va using a freshly allocated block, without waiting for a
// fault. Gemini's host side uses this to back a guest huge page
// (type-1 fix) as soon as the scanner reports it.
func (L *Layer) MapHugeEager(va uint64) error {
	hugeBase := va &^ uint64(mem.HugeSize-1)
	v := L.Space.Find(hugeBase)
	if v == nil || !regionInVMABounds(hugeBase, v) {
		return fmt.Errorf("machine: region %#x not inside a VMA", hugeBase)
	}
	if _, isHuge, present := L.Table.LookupHugeRegion(hugeBase); isHuge || present > 0 {
		return fmt.Errorf("machine: region %#x not empty", hugeBase)
	}
	block, err := L.Buddy.Alloc(mem.HugeOrder)
	if err != nil {
		return err
	}
	if err := L.Table.Map2M(hugeBase, block); err != nil {
		L.Buddy.Free(block, mem.HugeOrder)
		return err
	}
	if L.Trace != nil {
		L.Trace.Event(trace.EvPromote, hugeBase, block, mem.HugeOrder, 0, "eager")
	}
	L.Stats.HugeMappedPages += mem.PagesPerHuge
	L.Stats.BackgroundCycles += L.Costs.FaultHugeZero + L.swapInRegion(hugeBase)
	return nil
}

// Demote splits the huge mapping covering va back into base mappings.
func (L *Layer) Demote(va uint64) error {
	if err := L.Table.Split(va); err != nil {
		return err
	}
	if L.Trace != nil {
		hugeBase := va &^ uint64(mem.HugeSize-1)
		L.Trace.Event(trace.EvSplit, hugeBase, 0, mem.HugeOrder, mem.PagesPerHuge, "split")
	}
	L.Stats.Splits++
	L.Stats.HugeMappedPages -= mem.PagesPerHuge
	L.Stats.BackgroundCycles += L.Costs.CollapseInPlace
	L.AddStall(L.Costs.Shootdown)
	if L.FlushRegion != nil {
		L.FlushRegion(va)
	}
	return nil
}

// DedupPage removes the base mapping for va and frees its frame,
// modelling HawkEye's zero-page deduplication. A later access refaults
// with copy-on-write cost.
func (L *Layer) DedupPage(va uint64) error {
	frame, err := L.Table.Unmap4K(va)
	if err != nil {
		return err
	}
	L.Buddy.Free(frame, 0)
	L.deduped[va>>mem.PageShift] = true
	L.Stats.DedupedPages++
	if L.FlushRegion != nil {
		L.FlushRegion(va)
	}
	return nil
}

// UnmapVMA removes every mapping inside the VMA and frees the frames,
// giving a FreeObserver policy the chance to claim whole huge blocks
// (Gemini's huge bucket intercepts frees of well-aligned regions).
func (L *Layer) UnmapVMA(v *VMA) {
	obs, _ := L.Policy.(FreeObserver)
	type mapping struct {
		va, frame uint64
		kind      mem.PageSizeKind
	}
	var ms []mapping
	L.Table.ScanRange(v.Start, v.End(), func(m pagetable.Mapping) bool {
		ms = append(ms, mapping{m.VA, m.Frame, m.Kind})
		return true
	})
	lastFlushed := ^uint64(0)
	for _, m := range ms {
		if m.kind == mem.Huge {
			if _, err := L.Table.Unmap2M(m.va); err != nil {
				panic(fmt.Sprintf("machine: UnmapVMA huge: %v", err))
			}
			L.Stats.HugeMappedPages -= mem.PagesPerHuge
			if obs != nil && obs.OnFreeHugeBlock(L, m.frame) {
				if L.FlushRegion != nil {
					L.FlushRegion(m.va)
					lastFlushed = m.va >> mem.HugeShift
				}
				continue
			}
			L.Buddy.Free(m.frame, mem.HugeOrder)
		} else {
			if _, err := L.Table.Unmap4K(m.va); err != nil {
				panic(fmt.Sprintf("machine: UnmapVMA base %#x: %v", m.va, err))
			}
			L.Buddy.Free(m.frame, 0)
		}
		// Base unmaps need shootdowns too, or churned VMAs leave stale
		// base-grain entries behind. ScanRange is ascending, so one
		// ranged flush per 2 MiB region covers all its base pages.
		if L.FlushRegion != nil && m.va>>mem.HugeShift != lastFlushed {
			L.FlushRegion(m.va)
			lastFlushed = m.va >> mem.HugeShift
		}
	}
	// Swapped-out pages inside the VMA die with it: their owner is
	// gone, so they can never fault back in. Discarding them keeps the
	// swapped set's accounting exact (audit.go, "swap-count").
	if len(L.swapped) != 0 {
		for vpn := range L.swapped {
			if va := vpn << mem.PageShift; va >= v.Start && va < v.End() {
				delete(L.swapped, vpn)
				L.Stats.SwapDroppedPages++
			}
		}
	}
	L.Space.Remove(v)
}

// ReclaimUnderPressure frees memory when the allocator runs low by
// demoting huge mappings and releasing their never-accessed pages —
// the bloat that migration-based promotion created by mapping absent
// pages. keep decides which huge mappings are protected (Gemini
// shields well-aligned pages, §8: "we only allow misaligned huge pages
// and infrequently used huge pages to be demoted"); a nil keep demotes
// any cold huge page. Returns pages freed.
func (L *Layer) ReclaimUnderPressure(lowWatermarkPages uint64, budget int, keep func(vaBase uint64) bool) uint64 {
	if L.Buddy.FreePages() >= lowWatermarkPages {
		return 0
	}
	type cand struct{ va uint64 }
	var cands []cand
	L.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if L.Heat(m.VA) > 0 {
			return true // hot pages stay huge
		}
		if keep != nil && keep(m.VA) {
			return true
		}
		cands = append(cands, cand{m.VA})
		return len(cands) < budget
	})
	var freed uint64
	for _, c := range cands {
		if err := L.Demote(c.va); err != nil {
			continue
		}
		if L.Trace != nil {
			L.Trace.Event(trace.EvDemote, c.va&^uint64(mem.HugeSize-1), 0, mem.HugeOrder, 0, "pressure")
		}
		// Free the pages that were never accessed (pure bloat). A
		// freshly split PTE carries no accessed bit, so harvest from
		// heat-era state: pages the split created are all unaccessed;
		// real residency shows up again on the next touch. To avoid
		// discarding live data, only unmap pages that were never
		// accessed while the region was base-mapped before promotion
		// is unknowable here — instead, conservative rule: unmap
		// nothing on layers whose mappings ARE the data (guest), and
		// let the EPT layer drop unaccessed backing safely (the guest
		// refaults it on demand).
		if L.Name != "ept" {
			continue
		}
		base := c.va &^ uint64(mem.HugeSize-1)
		for p := uint64(0); p < mem.PagesPerHuge; p++ {
			va := base + p*mem.PageSize
			if L.Table.Accessed(va) {
				continue
			}
			frame, err := L.Table.Unmap4K(va)
			if err != nil {
				continue
			}
			L.Buddy.Free(frame, 0)
			freed++
		}
		L.Stats.ReclaimedPages += freed
	}
	return freed
}

// MappedPages returns the number of base-page-equivalents mapped.
func (L *Layer) MappedPages() uint64 {
	return L.Table.Mapped4K() + L.Table.Mapped2M()*mem.PagesPerHuge
}

// CompactRegion tries to free the whole 2 MiB frame region with the
// given huge index by migrating the movable (mapped) pages inside it
// to frames outside it — the kcompactd mechanism that lets every
// promotion path find order-9 blocks on long-running systems. It
// aborts (rolling back) when the region holds frames that are neither
// free nor mapped by this layer's table (unmovable allocations).
// On success the region becomes one free order-9 block.
func (L *Layer) CompactRegion(hugeIdx uint64) bool {
	start := hugeIdx * mem.PagesPerHuge
	if start+mem.PagesPerHuge > L.Buddy.TotalPages() {
		return false
	}
	// Pass 1: claim every free frame of the region and check that the
	// rest are movable, so that migration destinations can never land
	// inside the region being cleared.
	var claimed []uint64
	var migrate []uint64
	// regions holds the distinct 2 MiB input regions of the pages moved
	// so far. Nothing reads or fills the TLB until CompactRegion
	// returns, so one flush per region once the moves are done leaves
	// the TLB exactly as a flush after every move would.
	var regions []uint64
	flush := func() {
		if L.FlushRegion != nil {
			for _, r := range regions {
				L.FlushRegion(r << mem.HugeShift)
			}
		}
	}
	abort := func() bool {
		flush()
		for _, f := range claimed {
			L.Buddy.Free(f, 0)
		}
		return false
	}
	for f := start; f < start+mem.PagesPerHuge; f++ {
		if L.Buddy.AllocAt(f, 0) == nil {
			claimed = append(claimed, f)
			continue
		}
		if _, ok := L.Table.ReverseLookup(f); !ok {
			// Unmovable (pinned, or covered by a huge mapping).
			return abort()
		}
		migrate = append(migrate, f)
	}
	// Pass 2: migrate the mapped pages out.
	moves := 0
	for _, f := range migrate {
		va, ok := L.Table.ReverseLookup(f)
		if !ok {
			return abort()
		}
		dest, err := L.Buddy.Alloc(0)
		if err != nil {
			return abort()
		}
		if _, err := L.Table.Remap4K(va, dest); err != nil {
			L.Buddy.Free(dest, 0)
			return abort()
		}
		claimed = append(claimed, f)
		moves++
		L.Stats.MigratedPages++
		L.Stats.BackgroundCycles += L.Costs.CopyPage
		if r := va >> mem.HugeShift; !slices.Contains(regions, r) {
			regions = append(regions, r)
		}
	}
	flush()
	if moves > 0 {
		L.AddStall(L.Costs.Shootdown + uint64(moves)*L.Costs.CachePollution)
	}
	// All 512 frames are ours: release them as one block.
	for _, f := range claimed {
		L.Buddy.Free(f, 0)
	}
	if L.Trace != nil {
		L.Trace.Event(trace.EvCompactionPass, 0, start, mem.HugeOrder, uint64(moves), "compact")
	}
	L.Stats.CompactedRegions++
	return true
}

// RunCompaction is the kcompactd quantum: when free huge blocks run
// low, sweep for a compactable region (bounded scan) and free it.
// Returns true when a block was produced.
func (L *Layer) RunCompaction(lowWatermark uint64, scanBudget int) bool {
	if L.compactionIdle(lowWatermark) {
		return false
	}
	nRegions := L.Buddy.TotalPages() / mem.PagesPerHuge
	for i := 0; i < scanBudget; i++ {
		hi := (L.compactCursor + uint64(i)) % nRegions
		L.Stats.BackgroundCycles += L.Costs.ScanRegion
		if L.CompactRegion(hi) {
			L.compactCursor = (hi + 1) % nRegions
			return true
		}
	}
	L.compactCursor = (L.compactCursor + uint64(scanBudget)) % nRegions
	return false
}
