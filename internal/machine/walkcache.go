package machine

import (
	"math"
	"sync"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// This file implements the software walk cache that makes the access
// hot path allocation-free and walk-free in steady state. See
// DESIGN.md §"Performance model" for the full design discussion.
//
// The cache is purely an implementation accelerator: a hit performs
// exactly the simulated work the slow path would perform (heat
// bookkeeping, accessed bits, the TLB access with identical arguments,
// stall draining) while skipping the real work of re-walking two radix
// page tables to rediscover a translation that cannot have changed.
// The simulated machine's observable state — TLB contents and stats,
// page-table accessed bits, heat counters, cycle charges — is
// bit-identical with the cache on or off; only wall-clock time differs.
//
// Validity is tracked per 2 MiB region, not per entry hook. Every
// destructive page-table mutation (unmap, collapse, split, remap) logs
// the input region it touched in its table (pagetable.Table.Dirty).
// The cache keeps generation stamps: one per guest physical region
// (the EPT side; guest physical memory is the dense [0, N)) and one
// per group of 512 direct-mapped slots (the guest side: a slot group
// holds the guest virtual regions that share bits 21..27). An entry
// records both stamps when it is filled and hits only while the tag
// and both stamps still match. AccessN drains the two logs at the
// start of every batch and after every uncached access, the only
// points at which a table can have changed, and gives each logged
// region a fresh stamp; regions sharing a slot group invalidate
// together, which is always safe. A saturated log or a replaced guest
// table (ResetGuestProcess) gives every guest group a fresh stamp,
// which drops every entry. Stamps are issued from one counter that
// only grows, so an entry can never match a stamp issued after it was
// filled. This catches every invalidation source by construction —
// including paths like ReclaimUnderPressure's EPT bloat unmapping that
// bypass the TLB FlushRegion hooks — so the cache can never serve a
// stale translation.

// walkCacheSize is the number of direct-mapped entries, indexed by the
// low bits of the guest virtual page number. Must be a power of two.
// 64 Ki entries cover a 256 MiB-resident hot set per VM at 4 MiB of
// host memory — sized for the Figure 2 sweep's uniform accesses over
// datasets up to that scale, where a smaller cache would thrash (VMA
// pages are contiguous, so a footprint up to the cache size maps with
// zero conflicts; Zipf-skewed workloads effectively cache far more).
const walkCacheSize = 1 << 16

// wcGroups is the number of guest-side stamps: one per run of
// PagesPerHuge slots, so the slots of one guest virtual 2 MiB region
// share a stamp.
const wcGroups = walkCacheSize / mem.PagesPerHuge

// wcEntry caches one resolved nested translation for a 4 KiB guest
// virtual page: everything the fast path needs to re-play an access
// without touching either page table. The layout is 64 bytes — one
// cache line, pinned by TestWalkCacheEntryIs64Bytes — because a probe
// into the (large, randomly indexed) entry array costs one memory
// access per line touched; quantities derivable from gva, gfn or meta
// (heat indices, PTE slots, the three page-size kinds) are recomputed
// on the hit path instead of stored.
type wcEntry struct {
	tag  uint64 // gva >> PageShift
	gfn  uint64 // guest frame number (gpa = gfn*PageSize + offset)
	gRef pagetable.AccessRef
	eRef pagetable.AccessRef
	// tlbSet is the precomputed TLB set index for (gva, eff), which
	// saves the batch kernel a per-access modulo (tlb.SetIndexOf).
	tlbSet uint32
	// gStamp and eStamp are the guest slot group's and the guest
	// physical region's stamps at fill time; 0 never matches.
	gStamp uint32
	eStamp uint32
	// meta packs eff | gKind<<2 | hKind<<4 (tlb.PackKinds), where eff
	// is the TLB entry kind under the §2.2 alignment rule, so AccessN
	// stages one byte per access instead of three kind slices.
	meta uint8
}

// walkCache is a per-VM direct-mapped cache of resolved translations.
type walkCache struct {
	entries []wcEntry
	// gStamp holds the guest-side stamp of each slot group, eStamp the
	// EPT-side stamp of each guest physical 2 MiB region.
	gStamp [wcGroups]uint32
	eStamp []uint32
	// next is the next stamp to issue; every stamp in use is below it.
	next uint32
	// gTable is the guest table the stamps describe. ResetGuestProcess
	// installs a fresh table, whose log says nothing about the old
	// one. Holding the pointer also pins the old table, so a freshly
	// allocated replacement can never alias it.
	gTable *pagetable.Table
}

// hit reports whether ent holds a live translation for gva.
func (wc *walkCache) hit(ent *wcEntry, gva uint64) bool {
	return ent.tag == gva>>mem.PageShift && ent.gStamp == wc.gStamp[gva>>mem.HugeShift%wcGroups] &&
		ent.eStamp == wc.eStamp[ent.gfn/mem.PagesPerHuge]
}

// issue returns a fresh stamp. Should the counter ever run out, every
// entry is cleared and stamps restart, so no stale entry can match a
// reissued value.
func (wc *walkCache) issue() uint32 {
	if wc.next == math.MaxUint32 {
		wc.restamp()
	}
	wc.next++
	return wc.next - 1
}

// restamp gives every guest slot group and guest physical region one
// fresh stamp, which no filled entry carries. At the end of the stamp
// range it clears every entry first and starts over at 1.
func (wc *walkCache) restamp() {
	if wc.next == math.MaxUint32 {
		clear(wc.entries)
		wc.next = 1
	}
	for i := range wc.gStamp {
		wc.gStamp[i] = wc.next
	}
	for i := range wc.eStamp {
		wc.eStamp[i] = wc.next
	}
	wc.next++
}

// wcArena is a pooled walk-cache entry array. next is the lowest stamp
// no entry in the array carries, so a VM reusing the arena starts its
// stamps there and treats every recycled entry as invalid without
// clearing the 4 MiB array. eStamp is the reusable backing of the
// EPT-side stamps.
type wcArena struct {
	entries []wcEntry
	eStamp  []uint32
	next    uint32
}

// wcPool recycles walk-cache arenas across VMs. Benchmark sweeps build
// and drop many machines back to back, and the per-VM entry array was
// the dominant allocation — pooling removes both the allocation and
// the GC's repeated scans of its AccessRef pointers.
var wcPool sync.Pool

// wcInit (re)arms the walk cache. Called from AddVM and
// SetWalkCacheEnabled(true).
func (vm *VM) wcInit() {
	if vm.wcArena != nil {
		vm.wcRelease()
	}
	ar, _ := wcPool.Get().(*wcArena)
	if ar == nil {
		ar = &wcArena{entries: make([]wcEntry, walkCacheSize), next: 1}
	}
	vm.wcArena = ar
	regions := (vm.guestPages + mem.PagesPerHuge - 1) / mem.PagesPerHuge
	if uint64(cap(ar.eStamp)) < regions {
		ar.eStamp = make([]uint32, regions)
	}
	vm.wc = walkCache{
		entries: ar.entries,
		eStamp:  ar.eStamp[:regions],
		next:    ar.next,
		gTable:  vm.Guest.Table,
	}
	vm.wc.restamp()
	vm.Guest.Table.ClearDirty()
	vm.EPT.Table.ClearDirty()
}

// wcRelease disables the walk cache and returns its arena to the pool.
// Later accesses take the uncached reference path, so releasing is
// always safe; it only gives up the speedup.
func (vm *VM) wcRelease() {
	if vm.wcArena == nil {
		return
	}
	vm.wcArena.next = vm.wc.next
	wcPool.Put(vm.wcArena)
	vm.wcArena = nil
	vm.wc = walkCache{}
}

// SetWalkCacheEnabled toggles the walk cache. Disabling it forces
// every access down the uncached reference path; results are identical
// either way (locked by TestWalkCacheObserverEffect), so this exists
// for benchmarks measuring the cache's speedup and for tests
// cross-checking the cached path against the reference walk.
func (vm *VM) SetWalkCacheEnabled(on bool) {
	if on {
		vm.wcInit()
	} else {
		vm.wcRelease()
	}
}

// WalkCacheEnabled reports whether the walk cache is armed.
func (vm *VM) WalkCacheEnabled() bool { return vm.wc.entries != nil }

// wcRevalidate brings the stamps up to date with both tables: it gives
// a fresh stamp to every guest slot group and guest physical region
// their logs name, or to every guest slot group when a log saturated or
// the guest table was replaced, and empties the logs.
func (vm *VM) wcRevalidate() {
	wc := &vm.wc
	g, e := vm.Guest.Table, vm.EPT.Table
	if wc.gTable == g && g.Clean() && e.Clean() {
		return
	}
	gDirty, gAll := g.Dirty()
	eDirty, eAll := e.Dirty()
	if gAll || eAll || wc.gTable != g {
		for i := range wc.gStamp {
			wc.gStamp[i] = wc.issue()
		}
	} else {
		for _, r := range gDirty {
			wc.gStamp[r%wcGroups] = wc.issue()
		}
		for _, r := range eDirty {
			if r < uint64(len(wc.eStamp)) {
				wc.eStamp[r] = wc.issue()
			}
		}
	}
	g.ClearDirty()
	e.ClearDirty()
	wc.gTable = g
}

// wcFill installs the translation the uncached access just resolved
// for gva in its direct-mapped slot. That access may itself have
// mutated the tables (faults, policy-triggered compaction), so the
// snapshot is revalidated first; nothing mutates either table between
// the fault paths handing out tr's refs and this call, so tr is what
// the next access will see. A translation whose guest side moved
// during the EPT fault (tr.moved) is not cached.
func (vm *VM) wcFill(gva uint64, tr resolved) {
	vm.wcRevalidate()
	wc := &vm.wc
	ent := &wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)]
	if tr.moved {
		ent.gStamp = 0
		return
	}
	gKind, hKind := tr.gKind, tr.hKind
	var eff mem.PageSizeKind
	if vm.radix {
		eff = mem.Base
		if gKind == mem.Huge && hKind == mem.Huge {
			eff = mem.Huge
		}
	} else {
		// Non-default modes own the entry-kind rule; the cached eff is
		// replayed into mode.Access on every hit.
		eff = vm.mode.EffectiveKind(gKind, hKind)
	}
	*ent = wcEntry{
		tag:    gva >> mem.PageShift,
		gfn:    tr.gfn,
		gRef:   tr.gRef,
		eRef:   tr.eRef,
		tlbSet: vm.TLB.SetIndexOf(gva, eff),
		gStamp: wc.gStamp[gva>>mem.HugeShift%wcGroups],
		eStamp: wc.eStamp[tr.gfn/mem.PagesPerHuge],
		meta:   tlb.PackKinds(eff, gKind, hKind),
	}
}
