package machine

import (
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
// Validity is tracked with a single epoch, not per-entry hooks: every
// destructive page-table mutation (unmap, collapse, split, remap)
// bumps that table's Version counter, and AccessN compares the two
// tables' versions (and the guest table's identity, which
// ResetGuestProcess replaces wholesale) against a snapshot at the start
// of every batch and after every uncached access, the only points at
// which a table can have changed. Any change bumps the cache epoch,
// invalidating all entries at once in O(1). This catches every invalidation source by
// construction — including paths like ReclaimUnderPressure's EPT bloat
// unmapping that bypass the TLB FlushRegion hooks — so the cache can
// never serve a stale translation.

// walkCacheSize is the number of direct-mapped entries, indexed by the
// low bits of the guest virtual page number. Must be a power of two.
// 64 Ki entries cover a 256 MiB-resident hot set per VM at ~6 MiB of
// host memory — sized for the Figure 2 sweep's uniform accesses over
// datasets up to that scale, where a smaller cache would thrash (VMA
// pages are contiguous, so a footprint up to the cache size maps with
// zero conflicts; Zipf-skewed workloads effectively cache far more).
const walkCacheSize = 1 << 16

// wcEntry caches one resolved nested translation for a 4 KiB guest
// virtual page: everything the fast path needs to re-play an access
// without touching either page table. The layout is exactly 64 bytes —
// one cache line — because a probe into the (large, randomly indexed)
// entry array costs one memory access per line touched; quantities
// derivable from gva or gfn (heat indices, PTE slots) are recomputed
// on the hit path instead of stored.
type wcEntry struct {
	tag   uint64 // gva >> PageShift
	epoch uint64 // valid iff equal to walkCache.epoch (0 = never)
	gfn   uint64 // guest frame number (gpa = gfn*PageSize + offset)
	gRef  pagetable.AccessRef
	eRef  pagetable.AccessRef
	gKind mem.PageSizeKind
	hKind mem.PageSizeKind
	eff   mem.PageSizeKind // TLB entry kind under the §2.2 alignment rule
	// tlbSet is the precomputed TLB set index for (gva, eff) — it fits
	// in the line's padding and saves the batch kernel a per-access
	// modulo (tlb.SetIndexOf).
	tlbSet uint32
	// meta packs eff | gKind<<2 | hKind<<4 (tlb.PackKinds) so AccessN
	// stages one byte per access instead of three kind slices; like
	// tlbSet it lives in padding the 64-byte layout already paid for.
	meta uint8
}

// walkCache is a per-VM direct-mapped cache of resolved translations.
type walkCache struct {
	entries []wcEntry
	// epoch invalidates the whole cache when bumped; entries are live
	// iff their epoch matches. Starts at 1 so zero-value entries are
	// invalid.
	epoch uint64
	// Snapshot the cache epoch was established under: the guest table's
	// identity (ResetGuestProcess installs a fresh table, whose version
	// counter restarts) and both tables' destructive-mutation versions.
	// Holding the *Table pointer also pins the old table, so a freshly
	// allocated replacement can never alias it.
	gTable *pagetable.Table
	gVer   uint64
	eVer   uint64
}

// wcArena is a pooled walk-cache entry array. lastEpoch records the
// highest epoch any entry in the array may carry, so a VM reusing the
// arena can start at lastEpoch+1 and treat every recycled entry as
// invalid without clearing the 4 MiB array.
type wcArena struct {
	entries   []wcEntry
	lastEpoch uint64
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
		ar = &wcArena{entries: make([]wcEntry, walkCacheSize)}
	}
	vm.wcArena = ar
	vm.wc = walkCache{
		entries: ar.entries,
		epoch:   ar.lastEpoch + 1,
		gTable:  vm.Guest.Table,
		gVer:    vm.Guest.Table.Version(),
		eVer:    vm.EPT.Table.Version(),
	}
}

// wcRelease disables the walk cache and returns its arena to the pool.
// Later accesses take the uncached reference path, so releasing is
// always safe; it only gives up the speedup.
func (vm *VM) wcRelease() {
	if vm.wcArena == nil {
		return
	}
	vm.wcArena.lastEpoch = vm.wc.epoch
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

// wcRevalidate re-checks the epoch snapshot against the live tables,
// bumping the epoch (a whole-cache invalidation) when either table saw
// a destructive mutation or the guest table was replaced.
func (vm *VM) wcRevalidate() {
	wc := &vm.wc
	g, e := vm.Guest.Table, vm.EPT.Table
	if wc.gTable != g || wc.gVer != g.Version() || wc.eVer != e.Version() {
		wc.epoch++
		wc.gTable, wc.gVer, wc.eVer = g, g.Version(), e.Version()
	}
}

// wcFill resolves gva through both tables and installs the result in
// its direct-mapped slot. Called after the slow path has ensured both
// layers are mapped; the slow path itself may have mutated the tables
// (faults, policy-triggered compaction), so the snapshot is
// revalidated first and the entry is resolved fresh — it records what
// the next access will see, not what the slow path saw mid-flight.
func (vm *VM) wcFill(gva uint64) {
	vm.wcRevalidate()
	wc := &vm.wc
	ent := &wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)]
	gfn, gKind, gRef, ok := vm.Guest.Table.LookupRef(gva)
	if !ok {
		ent.epoch = 0
		return
	}
	gpa := gfn*mem.PageSize + (gva & (mem.PageSize - 1))
	_, hKind, eRef, ok := vm.EPT.Table.LookupRef(gpa)
	if !ok {
		ent.epoch = 0
		return
	}
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
		epoch:  wc.epoch,
		gfn:    gfn,
		gRef:   gRef,
		eRef:   eRef,
		gKind:  gKind,
		hKind:  hKind,
		eff:    eff,
		tlbSet: vm.TLB.SetIndexOf(gva, eff),
		meta:   tlb.PackKinds(eff, gKind, hKind),
	}
}
