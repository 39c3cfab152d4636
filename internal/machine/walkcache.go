package machine

import (
	"sync"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// This file implements the software walk cache (DESIGN.md §7.1): per
// VM, what translates each 2 MiB region at each layer — its leaf or
// its huge frame base (pagetable.RegionLeaf) — in a guest-side array
// direct-mapped by guest virtual region and an EPT-side array indexed
// by guest physical region. A hit reads the two PTE words the
// reference walk would reach and does exactly accessUncached's
// simulated work, so results are bit-identical with the cache on or
// off. Every change to an entry's region is a destructive mutation
// its table logs (pagetable.Table.Dirty), and the entries the logs
// name are cleared before the next hit (audit rule "walk-cache").

// wcGuestSize is the number of guest-side entries, indexed by the low
// bits of the guest virtual 2 MiB region number: 1024 entries cover
// 2 GiB of contiguous guest virtual memory in 32 KiB. Must be a power
// of two.
const wcGuestSize = 1 << 10

// wcRegion caches what translates one 2 MiB input region of one
// table: its leaf, or its huge frame base. The zero value caches
// nothing.
type wcRegion struct {
	leaf *pagetable.Leaf
	// huge is 1 + the huge frame base when the region is mapped huge,
	// and 0 otherwise.
	huge uint64
}

// region builds the entry for a pagetable.RegionLeaf result.
func region(l *pagetable.Leaf, hugeFrame uint64, huge bool) wcRegion {
	if huge {
		return wcRegion{huge: hugeFrame + 1}
	}
	return wcRegion{leaf: l}
}

// at returns the output frame and kind of the region's page i
// (0..511); ok is false when the entry holds no present translation
// for it.
func (r *wcRegion) at(i uint64) (frame uint64, kind mem.PageSizeKind, ok bool) {
	if r.leaf != nil {
		frame, ok = r.leaf.Frame(i)
		return frame, mem.Base, ok
	}
	return r.huge - 1 + i, mem.Huge, r.huge != 0
}

// wcGuest is a guest-side entry: the region it caches and that
// region's Huge-kind TLB set, so a doubly-huge hit needs no modulo.
// 32 bytes, pinned by TestWalkCacheGuestEntryIs32Bytes.
type wcGuest struct {
	tag uint64 // gva >> HugeShift
	wcRegion
	hugeSet uint32
}

// walkCache is a per-VM cache of the leaves that translate each 2 MiB
// region at each layer.
type walkCache struct {
	guest *[wcGuestSize]wcGuest
	// ept holds one entry per guest physical 2 MiB region.
	ept []wcRegion
	// gTable is the guest table the entries describe. ResetGuestProcess
	// installs a fresh table, whose log says nothing about the old
	// one. Holding the pointer also pins the old table, so a freshly
	// allocated replacement can never alias it.
	gTable *pagetable.Table
}

// wcArena is a pooled walk cache with the access batch buffers of the
// VM using it. A pooled arena's entries are all zero: wcRelease clears
// them, which also lets the collector have the leaves they held.
type wcArena struct {
	guest [wcGuestSize]wcGuest
	ept   []wcRegion
	bat   accessBatch
}

// wcPool recycles walk-cache arenas across VMs. Benchmark sweeps build
// and drop many machines back to back; pooling keeps each machine's
// cache and batch buffers from being allocated again.
var wcPool sync.Pool

// wcInit (re)arms the walk cache. Called from AddVM and
// SetWalkCacheEnabled(true).
func (vm *VM) wcInit() {
	if vm.wcArena != nil {
		vm.wcRelease()
	}
	ar, _ := wcPool.Get().(*wcArena)
	if ar == nil {
		ar = &wcArena{bat: newAccessBatch()}
	}
	regions := (vm.guestPages + mem.PagesPerHuge - 1) / mem.PagesPerHuge
	if uint64(cap(ar.ept)) < regions {
		ar.ept = make([]wcRegion, regions)
	}
	vm.wcArena, vm.bat = ar, ar.bat
	vm.wc = walkCache{guest: &ar.guest, ept: ar.ept[:regions], gTable: vm.Guest.Table}
	vm.Guest.Table.ClearDirty()
	vm.EPT.Table.ClearDirty()
}

// wcRelease disables the walk cache and returns its arena to the pool.
// Later accesses take the uncached reference path, so releasing is
// always safe; it only gives up the speedup.
func (vm *VM) wcRelease() {
	ar := vm.wcArena
	if ar == nil {
		return
	}
	clear(ar.guest[:])
	clear(vm.wc.ept)
	wcPool.Put(ar)
	vm.wcArena, vm.bat = nil, accessBatch{}
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
func (vm *VM) WalkCacheEnabled() bool { return vm.wc.guest != nil }

// wcRevalidate brings the entries up to date with both tables: it
// clears every entry whose region a log names, or a whole side when
// its log saturated or the guest table was replaced, and empties the
// logs.
func (vm *VM) wcRevalidate() {
	wc := &vm.wc
	g, e := vm.Guest.Table, vm.EPT.Table
	if wc.gTable == g && g.Clean() && e.Clean() {
		return
	}
	if dirty, all := g.Dirty(); all || wc.gTable != g {
		clear(wc.guest[:])
	} else {
		for _, r := range dirty {
			wc.guest[r&(wcGuestSize-1)] = wcGuest{}
		}
	}
	if dirty, all := e.Dirty(); all {
		clear(wc.ept)
	} else {
		for _, r := range dirty {
			if r < uint64(len(wc.ept)) {
				wc.ept[r] = wcRegion{}
			}
		}
	}
	g.ClearDirty()
	e.ClearDirty()
	wc.gTable = g
}

// wcFill caches the regions that translate gva at both layers, after
// an access that mapped gva and may itself have mutated the tables
// (faults, policy-triggered compaction, direct reclaim): the entries
// are revalidated first, and an entry that is still live is already
// what its table holds.
func (vm *VM) wcFill(gva uint64) {
	vm.wcRevalidate()
	wc := &vm.wc
	r := gva >> mem.HugeShift
	g := &wc.guest[r&(wcGuestSize-1)]
	if g.tag != r || g.wcRegion == (wcRegion{}) {
		*g = wcGuest{tag: r, wcRegion: region(vm.Guest.Table.RegionLeaf(gva)), hugeSet: vm.TLB.SetIndexOf(gva, mem.Huge)}
	}
	gfn, _, ok := g.at(gva >> mem.PageShift & (mem.PagesPerHuge - 1))
	if er := gfn / mem.PagesPerHuge; ok && er < uint64(len(wc.ept)) && wc.ept[er] == (wcRegion{}) {
		wc.ept[er] = region(vm.EPT.Table.RegionLeaf(gfn * mem.PageSize))
	}
}
