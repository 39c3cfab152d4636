package machine

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/mem"
	"repro/internal/trace"
)

// This file is the host swap/reclaim tier: under memory pressure the
// host pages guest memory out to a simulated swap device, preferring
// cooperative reclaim (balloon drivers) over involuntary swap-out, and
// charging refaults the swap-in latency. Evicting any base page of a
// host huge frame demotes the frame first (demotion-on-swap), so swap
// directly attacks huge-page coverage — the interaction the paper
// predicts but never measures. Victim selection is pluggable through
// the PressurePolicy registry, modelled on "Flexible Swapping for the
// Cloud" (PAPERS.md). See DESIGN.md §10 for the full model.

// PressurePolicy selects swap-out victims for one layer under host
// memory pressure. Implementations must be deterministic functions of
// the layer's state: the swap tick and fast-forward idle proofs both
// depend on it.
type PressurePolicy interface {
	// Name identifies the policy in diagnostics and flag values.
	Name() string
	// Victims returns up to max 2 MiB input-region indices of L that
	// should be paged out next, coldest-first. Regions with no resident
	// pages are useless as victims and should not be returned.
	Victims(L *Layer, max int) []uint64
}

// DefaultPressurePolicy is the registry name of the swap tier's
// default victim selector.
const DefaultPressurePolicy = "lru-heat"

// pressurePolicies is guarded by mu: machines built concurrently (for
// example by parallel grid cells) query it from several goroutines.
var pressurePolicies = struct {
	mu        sync.Mutex
	names     []string
	factories map[string]func() PressurePolicy
	frozen    bool
}{factories: map[string]func() PressurePolicy{}}

// RegisterPressurePolicy adds a pressure-policy constructor under name.
// Call from init; registering after the registry has been queried, or
// reusing a name, panics — the same freeze-on-first-query contract as
// the sysreg system registry.
func RegisterPressurePolicy(name string, factory func() PressurePolicy) {
	pressurePolicies.mu.Lock()
	defer pressurePolicies.mu.Unlock()
	if pressurePolicies.frozen {
		panic(fmt.Sprintf("machine: RegisterPressurePolicy(%q) after registry queried", name))
	}
	if _, dup := pressurePolicies.factories[name]; dup {
		panic(fmt.Sprintf("machine: duplicate pressure policy %q", name))
	}
	pressurePolicies.factories[name] = factory
	pressurePolicies.names = append(pressurePolicies.names, name)
}

// PressurePolicyNames returns the registered policy names in
// registration order and freezes the registry.
func PressurePolicyNames() []string {
	pressurePolicies.mu.Lock()
	defer pressurePolicies.mu.Unlock()
	pressurePolicies.frozen = true
	return append([]string(nil), pressurePolicies.names...)
}

// NewPressurePolicy builds a registered policy by name ("" selects
// DefaultPressurePolicy) and freezes the registry. Unknown names panic:
// they are configuration errors, caught by config validation first.
func NewPressurePolicy(name string) PressurePolicy {
	pressurePolicies.mu.Lock()
	defer pressurePolicies.mu.Unlock()
	pressurePolicies.frozen = true
	if name == "" {
		name = DefaultPressurePolicy
	}
	f, ok := pressurePolicies.factories[name]
	if !ok {
		panic(fmt.Sprintf("machine: unknown pressure policy %q (have %v)", name, pressurePolicies.names))
	}
	return f()
}

// ValidPressurePolicy reports whether name is registered ("" counts:
// it selects the default).
func ValidPressurePolicy(name string) bool {
	pressurePolicies.mu.Lock()
	defer pressurePolicies.mu.Unlock()
	pressurePolicies.frozen = true
	if name == "" {
		return true
	}
	_, ok := pressurePolicies.factories[name]
	return ok
}

func init() {
	RegisterPressurePolicy(DefaultPressurePolicy, func() PressurePolicy { return &lruHeatPolicy{} })
}

// lruHeatPolicy is the default victim selector: regions ordered by
// decayed access heat ascending (coldest first), region index breaking
// ties so the order is total. Heat decays every tick, so this is an
// LRU approximation over 2 MiB regions — the granularity at which
// demotion-on-swap costs coverage. The candidates are the regions
// ScanRegions reports, which it finds without visiting leaf entries.
type lruHeatPolicy struct {
	scratch []uint64
}

func (p *lruHeatPolicy) Name() string { return DefaultPressurePolicy }

func (p *lruHeatPolicy) Victims(L *Layer, max int) []uint64 {
	if max <= 0 {
		return nil
	}
	p.scratch = p.scratch[:0]
	L.Table.ScanRegions(func(va uint64) bool {
		p.scratch = append(p.scratch, va>>mem.HugeShift)
		return true
	})
	// The tie-break makes the order total, so an unstable sort is exact.
	slices.SortFunc(p.scratch, func(a, b uint64) int {
		if c := cmp.Compare(L.Heat(a<<mem.HugeShift), L.Heat(b<<mem.HugeShift)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	if len(p.scratch) > max {
		p.scratch = p.scratch[:max]
	}
	return p.scratch
}

// BalloonDriver is the host's view of a guest balloon driver
// (implemented by internal/core). Inflating asks the guest to
// voluntarily surrender free guest frames so their host backing can be
// dropped without swap I/O; deflating returns them. All three methods
// must be deterministic.
type BalloonDriver interface {
	// Inflate asks the guest to surrender up to guestPages base pages
	// and drop their host backing. Returns the host base pages freed
	// (≤ guestPages: never-faulted guest frames have no backing).
	Inflate(guestPages uint64) uint64
	// Deflate returns up to guestPages surrendered pages to the guest.
	// Returns the guest pages returned.
	Deflate(guestPages uint64) uint64
	// Inflated reports the guest pages the balloon currently holds.
	Inflated() uint64
}

// SwapConfig configures the host swap tier (Machine.EnableSwap). The
// zero value of every field selects a sensible default, so
// SwapConfig{} arms the tier with the lru-heat policy and kswapd-style
// watermarks.
type SwapConfig struct {
	// Policy names the registered PressurePolicy ("" selects
	// DefaultPressurePolicy).
	Policy string
	// LowWatermark is the free-page level (host pages) below which the
	// pressure response runs; 0 means TotalPages/25 (4%).
	LowWatermark uint64
	// HighWatermark is the free-page level reclaim aims for once woken;
	// 0 means TotalPages/10 (10%). Balloons deflate only once free
	// memory reaches twice this level, giving the tier hysteresis.
	HighWatermark uint64
	// SwapBudget caps pages swapped out per tick; 0 means 2048.
	SwapBudget int
	// BalloonBudget caps guest pages ballooned (in or out) per tick;
	// 0 means 2048.
	BalloonBudget int
	// DirectBudget caps the regions one direct-reclaim episode (an
	// allocation failure on the fault path) may swap out; 0 means 8.
	DirectBudget int
}

// swapTier is the armed pressure machinery of one Machine.
type swapTier struct {
	cfg       SwapConfig
	pol       PressurePolicy
	low, high uint64
	cursor    int // round-robins the victim scan's starting VM
	// reclaim is the direct-reclaim hook built once in EnableSwap and
	// copied into each VM's EPT AllocFallback. It is a stored func
	// value, not a closure built in AddVM: a closure over the Machine
	// on the AddVM path would leak the receiver and force every
	// Machine — pressure-enabled or not — onto the heap.
	reclaim func(need uint64) bool
}

// EnableSwap arms the machine's swap/reclaim tier: every Tick checks
// the host free-page watermarks and responds to pressure by inflating
// balloons first and swapping out the pressure policy's victims
// second, and EPT demand faults that find the host allocator empty
// trigger synchronous direct reclaim instead of panicking. Call once,
// before the measured phase; VMs added later are armed automatically.
func (m *Machine) EnableSwap(cfg SwapConfig) {
	if m.swap != nil {
		panic("machine: EnableSwap called twice")
	}
	total := m.HostBuddy.TotalPages()
	st := &swapTier{cfg: cfg, pol: NewPressurePolicy(cfg.Policy)}
	st.low, st.high = cfg.LowWatermark, cfg.HighWatermark
	if st.low == 0 {
		st.low = total / 25
	}
	if st.high == 0 {
		st.high = total / 10
	}
	if st.high < st.low {
		st.high = st.low
	}
	if st.cfg.SwapBudget == 0 {
		st.cfg.SwapBudget = 2048
	}
	if st.cfg.BalloonBudget == 0 {
		st.cfg.BalloonBudget = 2048
	}
	if st.cfg.DirectBudget == 0 {
		st.cfg.DirectBudget = 8
	}
	st.reclaim = func(need uint64) bool { return m.directReclaim(need) }
	m.swap = st
	for _, vm := range m.VMs {
		m.armDirectReclaim(vm)
	}
}

// SwapEnabled reports whether the swap tier is armed.
func (m *Machine) SwapEnabled() bool { return m.swap != nil }

// armDirectReclaim points the VM's EPT allocation-failure hook at the
// machine's direct-reclaim path (the func value EnableSwap built).
func (m *Machine) armDirectReclaim(vm *VM) {
	vm.EPT.AllocFallback = m.swap.reclaim
}

// SwappedPages returns the number of this layer's pages currently
// paged out to the swap device.
func (L *Layer) SwappedPages() uint64 { return L.nSwapped }

// Swapped reports whether the page containing va is currently paged
// out (test hook).
func (L *Layer) Swapped(va uint64) bool {
	p := va >> mem.PageShift & (mem.PagesPerHuge - 1)
	return L.swapped[va>>mem.HugeShift][p/64]&(1<<(p%64)) != 0
}

// swapDrop clears the swapped bits of the pages overlapping [start,
// end), a non-empty byte range inside one 2 MiB region, and returns how
// many were set. The region's entry goes once its bitmap empties.
func (L *Layer) swapDrop(start, end uint64) uint64 {
	idx := start >> mem.HugeShift
	bm, ok := L.swapped[idx]
	if !ok {
		return 0
	}
	lo := start >> mem.PageShift & (mem.PagesPerHuge - 1)
	hi := (end-1)>>mem.PageShift&(mem.PagesPerHuge-1) + 1
	var n, left uint64
	for w := range bm {
		// Page bits [a, b) of the region fall in word w.
		if a, b := max(lo, uint64(w)*64), min(hi, uint64(w)*64+64); a < b {
			mask := ^uint64(0) >> (64 - (b - a)) << (a % 64)
			n += uint64(bits.OnesCount64(bm[w] & mask))
			bm[w] &^= mask
		}
		left |= bm[w]
	}
	switch {
	case left == 0:
		delete(L.swapped, idx)
	case n != 0:
		L.swapped[idx] = bm
	}
	L.nSwapped -= n
	return n
}

// SwapOutRegion pages out up to max resident base pages of the 2 MiB
// input region with the given index. A huge mapping covering the
// region is demoted first — demotion-on-swap: evicting any base page
// of a host huge frame splits the frame and costs huge coverage. The
// evicted frames return to the allocator, the pages enter the swapped
// set (a later fault pays Costs.SwapInPage), write-back is charged as
// background work, and the unmap shootdown stalls the layer. Returns
// the pages swapped out.
func (L *Layer) SwapOutRegion(hugeIdx uint64, max int) int {
	if max <= 0 {
		return 0
	}
	base := hugeIdx << mem.HugeShift
	if _, isHuge, _ := L.Table.LookupHugeRegion(base); isHuge {
		if err := L.Demote(base); err != nil {
			return 0
		}
		if L.Trace != nil {
			L.Trace.Event(trace.EvDemote, base, 0, mem.HugeOrder, 0, "swap")
		}
	}
	// One leaf pass unmaps the resident pages (a page never faulted or
	// already swapped has no mapping) and one buddy call frees them.
	var out [8]uint64
	var buf [mem.PagesPerHuge]uint64
	frames := L.Table.UnmapBase(base, base+mem.HugeSize, max, false, buf[:0], &out)
	L.Buddy.FreeFrames(frames)
	n := len(frames)
	if n > 0 {
		if L.swapped == nil {
			L.swapped = make(map[uint64][8]uint64)
		}
		bm := L.swapped[hugeIdx]
		for w := range bm {
			bm[w] |= out[w]
		}
		L.swapped[hugeIdx] = bm
		L.nSwapped += uint64(n)
		L.Stats.SwappedOutPages += uint64(n)
		L.Stats.BackgroundCycles += uint64(n) * L.Costs.SwapOutPage
		L.AddStall(L.Costs.Shootdown)
		if L.Trace != nil {
			L.Trace.Event(trace.EvSwapOut, base, 0, mem.HugeOrder, uint64(n), L.Name)
		}
	}
	return n
}

// swapInRegion brings back every swapped page of the 2 MiB region
// starting at hugeBase. Callers are about to install a huge mapping
// over the region, which makes all its pages resident — the swapped
// ones must be read back first (readahead swap-in) or the
// swapped⊕resident invariant breaks. Returns the swap-in cycle cost;
// the caller decides whether it lands on the faulting access or the
// daemon budget. The len guard keeps this free when the swap tier
// never ran.
func (L *Layer) swapInRegion(hugeBase uint64) uint64 {
	if len(L.swapped) == 0 {
		return 0
	}
	n := L.swapDrop(hugeBase, hugeBase+mem.HugeSize)
	if n == 0 {
		return 0
	}
	L.Stats.SwappedInPages += n
	if L.Trace != nil {
		L.Trace.Event(trace.EvSwapIn, hugeBase, 0, mem.HugeOrder, n, "readahead")
	}
	return n * L.Costs.SwapInPage
}

// DiscardBacking drops every trace of the layer's backing for the page
// range [start, end): huge mappings wholly inside the range are
// unmapped and their blocks freed, partially covered huge mappings are
// demoted first, resident base pages are unmapped and freed, and
// swapped-out pages in the range are discarded (counted in
// SwapDroppedPages — their contents are surrendered, not read back).
// The balloon driver (internal/core) uses it when the guest donates
// frames: donated memory is free inside the guest, so its host backing
// can be dropped wholesale without swap I/O. Returns the host pages
// freed to the allocator.
func (L *Layer) DiscardBacking(start, end uint64) uint64 {
	var freed uint64
	var buf [mem.PagesPerHuge]uint64
	for base := start &^ uint64(mem.HugeSize-1); base < end; base += mem.HugeSize {
		if _, isHuge, _ := L.Table.LookupHugeRegion(base); isHuge {
			if base >= start && base+mem.HugeSize <= end {
				frame, err := L.Table.Unmap2M(base)
				if err != nil {
					panic(fmt.Sprintf("machine: DiscardBacking huge: %v", err))
				}
				L.Stats.HugeMappedPages -= mem.PagesPerHuge
				L.Buddy.Free(frame, mem.HugeOrder)
				freed += mem.PagesPerHuge
				continue
			}
			if err := L.Demote(base); err != nil {
				continue
			}
		}
		lo, hi := max(base, start), min(base+mem.HugeSize, end)
		frames := L.Table.UnmapBase(lo, hi, mem.PagesPerHuge, false, buf[:0], nil)
		L.Buddy.FreeFrames(frames)
		freed += uint64(len(frames))
		// A page is resident XOR swapped, so every swapped page of the
		// range is one the unmap found unmapped.
		if len(L.swapped) != 0 {
			L.Stats.SwapDroppedPages += L.swapDrop(lo, hi)
		}
	}
	return freed
}

// directReclaim is the synchronous reclaim path: an EPT demand fault
// found the host allocator empty, so swap out the pressure policy's
// victims right now until need pages are free (bounded by
// DirectBudget regions). Returns whether the caller should retry its
// allocation. Costs are charged by SwapOutRegion as usual; the
// faulting access additionally absorbs the victim layer's shootdown
// stall through the normal stall quanta.
func (m *Machine) directReclaim(need uint64) bool {
	st := m.swap
	if st == nil || len(m.VMs) == 0 {
		return false
	}
	start := st.cursor % len(m.VMs)
	regions := st.cfg.DirectBudget
	for i := 0; i < len(m.VMs) && regions > 0; i++ {
		vm := m.VMs[(start+i)%len(m.VMs)]
		for _, idx := range st.pol.Victims(vm.EPT, regions) {
			vm.EPT.SwapOutRegion(idx, int(mem.PagesPerHuge))
			regions--
			if m.HostBuddy.FreePages() >= need {
				return true
			}
			if regions == 0 {
				break
			}
		}
	}
	return m.HostBuddy.FreePages() >= need
}

// swapIdle reports whether swapTick would be a no-op: the tier is
// unarmed, or free memory sits above the low watermark with no
// deflation pending. It is the single source for swapTick's early-out
// and for Machine.IdleHorizon's busy check, so the two cannot drift
// (the same contract compactionIdle and reclaimIdle follow).
func (m *Machine) swapIdle() bool {
	st := m.swap
	if st == nil {
		return true
	}
	free := m.HostBuddy.FreePages()
	if free < st.low {
		return false
	}
	if free >= 2*st.high {
		for _, vm := range m.VMs {
			if vm.Balloon != nil && vm.Balloon.Inflated() > 0 {
				return false
			}
		}
	}
	return true
}

// swapTick is the kswapd quantum, run once per Machine.Tick after the
// per-VM daemons. Under pressure (free < low watermark) it reclaims
// toward the high watermark: balloons inflate first (cooperative,
// cheap), then the pressure policy's victims are swapped out
// (involuntary, charged swap I/O). Once free memory is comfortable
// (≥ 2× high watermark) inflated balloons deflate gradually. The
// starting VM round-robins across pressure ticks so one victim VM is
// not bled dry while its neighbours idle.
func (m *Machine) swapTick() {
	if m.swapIdle() {
		return
	}
	st := m.swap
	free := m.HostBuddy.FreePages()
	if free >= st.low {
		// Comfortable: give ballooned memory back.
		budget := uint64(st.cfg.BalloonBudget)
		for i := 0; i < len(m.VMs) && budget > 0; i++ {
			vm := m.VMs[(st.cursor+i)%len(m.VMs)]
			if vm.Balloon == nil || vm.Balloon.Inflated() == 0 {
				continue
			}
			budget -= vm.Balloon.Deflate(budget)
		}
		st.cursor++
		return
	}
	need := st.high - free
	start := st.cursor % max(len(m.VMs), 1)
	st.cursor++
	// Phase 1: cooperative reclaim through the balloons.
	budget := uint64(st.cfg.BalloonBudget)
	for i := 0; i < len(m.VMs) && need > 0 && budget > 0; i++ {
		vm := m.VMs[(start+i)%len(m.VMs)]
		if vm.Balloon == nil {
			continue
		}
		ask := min(need, budget)
		freed := vm.Balloon.Inflate(ask)
		budget -= min(ask, budget)
		need -= min(freed, need)
	}
	// Phase 2: involuntary swap-out of the coldest regions.
	swapBudget := st.cfg.SwapBudget
	for i := 0; i < len(m.VMs) && need > 0 && swapBudget > 0; i++ {
		vm := m.VMs[(start+i)%len(m.VMs)]
		maxRegions := (swapBudget + int(mem.PagesPerHuge) - 1) / int(mem.PagesPerHuge)
		for _, idx := range st.pol.Victims(vm.EPT, maxRegions) {
			n := vm.EPT.SwapOutRegion(idx, swapBudget)
			swapBudget -= n
			need -= min(uint64(n), need)
			if need == 0 || swapBudget <= 0 {
				break
			}
		}
	}
}
