package machine

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// TestWalkCacheEntryIs64Bytes pins the entry layout to one cache line:
// a probe into the randomly indexed entry array costs one memory access
// per line it touches.
func TestWalkCacheEntryIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(wcEntry{}); n != 64 {
		t.Fatalf("wcEntry is %d bytes, want 64", n)
	}
}

// TestWalkCacheHugeIs32Bytes pins the region entry's layout: the 512
// entries fill 16 KiB, which stays in the data cache.
func TestWalkCacheHugeIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(wcHuge{}); n != 32 {
		t.Fatalf("wcHuge is %d bytes, want 32", n)
	}
}

// stampLayout builds a VM whose guest and EPT faults take the given
// policies' kinds, with two guest virtual regions mapped in its
// address space but nothing touched, and returns their pages.
func stampLayout(guest, host Policy) (*VM, []uint64) {
	m := NewMachine(16*mem.PagesPerHuge, DefaultCosts())
	vm := m.AddVM(8*mem.PagesPerHuge, guest, host, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	var gvas []uint64
	for p := uint64(0); p < 2*mem.PagesPerHuge; p++ {
		gvas = append(gvas, v.Start+p*mem.PageSize)
	}
	return vm, gvas
}

// stampBatches is the access order of stampVM: each region's first
// half is touched before either second half, so each region's guest
// frames span two guest physical regions.
func stampBatches(gvas []uint64) [][]uint64 {
	const half = mem.PagesPerHuge / 2
	return [][]uint64{gvas[:half], gvas[2*half : 3*half], gvas[half : 2*half], gvas[3*half:]}
}

// stampVM maps two guest virtual regions base page by base page, in
// stampBatches order, and caches every page of both in page entries.
func stampVM(t *testing.T) (*VM, []uint64) {
	t.Helper()
	vm, gvas := stampLayout(basePolicy{}, basePolicy{})
	for _, b := range stampBatches(gvas) {
		vm.AccessN(b)
	}
	checkCached(t, vm, gvas)
	return vm, gvas
}

// hugeStampVM maps two guest virtual regions huge at both layers and
// caches both, each in one region entry.
func hugeStampVM(t *testing.T) (*VM, []uint64) {
	t.Helper()
	vm, gvas := stampLayout(hugePolicy{}, hugePolicy{})
	vm.AccessN(gvas)
	checkCached(t, vm, gvas)
	for _, gva := range gvas {
		if !vm.wc.hitHuge(&vm.wc.huge[(gva>>mem.HugeShift)&(wcHugeSize-1)], gva) {
			t.Fatalf("setup: doubly-huge %#x has no live region entry", gva)
		}
	}
	return vm, gvas
}

// checkCached fails the test unless every page of gvas is cached, and
// cached in one home only: no page covered by a live region entry also
// has a live page entry.
func checkCached(t *testing.T, vm *VM, gvas []uint64) {
	t.Helper()
	vm.wcRevalidate()
	wc := &vm.wc
	for _, gva := range gvas {
		if !vm.wcHits(gva) {
			t.Fatalf("setup: %#x not cached", gva)
		}
		if wc.hitHuge(&wc.huge[(gva>>mem.HugeShift)&(wcHugeSize-1)], gva) &&
			wc.hit(&wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)], gva) {
			t.Fatalf("setup: %#x has a live region entry and a live page entry", gva)
		}
	}
}

// wcHits reports whether the walk cache holds a live entry for gva,
// a region entry or a page entry.
func (vm *VM) wcHits(gva uint64) bool {
	wc := &vm.wc
	return wc.hitHuge(&wc.huge[(gva>>mem.HugeShift)&(wcHugeSize-1)], gva) ||
		wc.hit(&wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)], gva)
}

// TestWalkCacheInvalidatesPerRegion: a destructive mutation drops the
// cached translations of the region it touched, at either layer, and
// nothing else; a saturated log drops everything.
func TestWalkCacheInvalidatesPerRegion(t *testing.T) {
	vm, gvas := stampVM(t)
	regionA, regionB := gvas[:mem.PagesPerHuge], gvas[mem.PagesPerHuge:]

	// Guest side: remap one page of region A.
	f, err := vm.Guest.Buddy.Alloc(0)
	if err != nil {
		t.Fatal(err)
	}
	old, err := vm.Guest.Table.Remap4K(regionA[7], f)
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.Buddy.Free(old, 0)
	vm.wcRevalidate()
	for _, gva := range regionA {
		if vm.wcHits(gva) {
			t.Fatalf("%#x in the remapped guest region still hits", gva)
		}
	}
	for _, gva := range regionB {
		if !vm.wcHits(gva) {
			t.Fatalf("%#x outside the remapped guest region misses", gva)
		}
	}

	// EPT side: unmap the host backing of one page of region B. Only
	// the pages whose guest frames share its guest physical region
	// miss.
	gfn, _, _ := vm.Guest.Table.Lookup(regionB[3])
	if _, err := vm.EPT.Table.Unmap4K(gfn * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm.wcRevalidate()
	misses := 0
	for _, gva := range regionB {
		g, _, _ := vm.Guest.Table.Lookup(gva)
		if hit, want := vm.wcHits(gva), g/mem.PagesPerHuge != gfn/mem.PagesPerHuge; hit != want {
			t.Fatalf("%#x (guest frame %#x): hit %v, want %v after the EPT unmap at frame %#x", gva, g, hit, want, gfn)
		}
		if g/mem.PagesPerHuge == gfn/mem.PagesPerHuge {
			misses++
		}
	}
	if misses == 0 || misses == len(regionB) {
		t.Fatalf("%d of %d region-B pages share the unmapped page's guest physical region; the check is vacuous", misses, len(regionB))
	}

	// A saturated guest log: every entry misses.
	vm.AccessN(gvas)
	for r := uint64(0); ; r++ {
		if _, all := vm.Guest.Table.Dirty(); all {
			break
		}
		va := uint64(1)<<40 + r*mem.HugeSize
		if _, err := vm.Guest.Table.Map4K(va, 1<<30+r); err != nil {
			t.Fatal(err)
		}
		if _, err := vm.Guest.Table.Unmap4K(va); err != nil {
			t.Fatal(err)
		}
	}
	vm.wcRevalidate()
	for _, gva := range gvas {
		if vm.wcHits(gva) {
			t.Fatalf("%#x still hits after a saturated log", gva)
		}
	}
}

// TestWalkCacheStampWrap: when the stamp counter runs out, every page
// entry and region entry is dropped and stamps restart, and the cache
// serves hits again.
func TestWalkCacheStampWrap(t *testing.T) {
	// Each fixture dirties one region of each layer: the guest region
	// of gvas[0] and the guest physical region behind the second guest
	// virtual region.
	for _, tc := range []struct {
		name  string
		build func(*testing.T) (*VM, []uint64)
		dirty func(L *Layer, va uint64) error
	}{
		{"page entries", stampVM, func(L *Layer, va uint64) error { _, err := L.Table.Unmap4K(va); return err }},
		{"region entries", hugeStampVM, func(L *Layer, va uint64) error { return L.Demote(va) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm, gvas := tc.build(t)
			vm.wc.next = math.MaxUint32 - 1
			// Two dirty regions take two stamps; the second runs the
			// counter out.
			if err := tc.dirty(vm.Guest, gvas[0]); err != nil {
				t.Fatal(err)
			}
			gfn, _, _ := vm.Guest.Table.Lookup(gvas[mem.PagesPerHuge])
			if err := tc.dirty(vm.EPT, gfn*mem.PageSize); err != nil {
				t.Fatal(err)
			}
			vm.wcRevalidate()
			if vm.wc.next > 8 {
				t.Fatalf("stamp counter at %d did not restart", vm.wc.next)
			}
			if *vm.wc.huge != [wcHugeSize]wcHuge{} {
				t.Fatal("region entries survived the restart")
			}
			for _, gva := range gvas {
				if vm.wcHits(gva) {
					t.Fatalf("%#x still hits after the stamps restarted", gva)
				}
			}
			vm.AccessN(gvas)
			vm.wcRevalidate()
			for _, gva := range gvas {
				if !vm.wcHits(gva) {
					t.Fatalf("%#x not cached after the stamps restarted", gva)
				}
			}
		})
	}
}

// TestWalkCacheArenaReuse: a VM that takes over a pooled arena treats
// every recycled page entry and region entry as dead, even where the
// entries' tags and frames match its own translations exactly, and
// charges what an uncached twin charges.
func TestWalkCacheArenaReuse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		build      func(*testing.T) (*VM, []uint64)
		guest, ept Policy
		batches    func([]uint64) [][]uint64
	}{
		{"page entries", stampVM, basePolicy{}, basePolicy{}, stampBatches},
		{"region entries", hugeStampVM, hugePolicy{}, hugePolicy{}, func(g []uint64) [][]uint64 { return [][]uint64{g} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, _ := tc.build(t)
			ar := old.wcArena
			old.wcRelease()
			// The twins replay the old VM's layout and access order, so
			// every recycled entry's tag and frame match a translation
			// the new VM makes.
			vm, gvas := stampLayout(tc.guest, tc.ept)
			ref, _ := stampLayout(tc.guest, tc.ept)
			ref.SetWalkCacheEnabled(false)
			// Hand ar to vm through the pool, as a sweep's next machine
			// would get it.
			for try := 0; vm.wcArena != ar; try++ {
				if try == 10 {
					t.Skip("the pool did not hand back the released arena")
				}
				vm.wcRelease()
				for wcPool.Get() != nil {
				}
				wcPool.Put(ar)
				vm.wcInit()
			}
			for _, gva := range gvas {
				if vm.wcHits(gva) {
					t.Fatalf("recycled entry for %#x hits", gva)
				}
			}
			for _, b := range tc.batches(gvas) {
				for _, gva := range b {
					if c1, c2 := vm.Access(gva), ref.Access(gva); c1 != c2 {
						t.Fatalf("access %#x cost %d cycles on the recycled arena, %d uncached", gva, c1, c2)
					}
				}
			}
			if s1, s2 := vm.TLB.Stats(), ref.TLB.Stats(); s1 != s2 {
				t.Fatalf("TLB stats diverged:\nrecycled %+v\nuncached %+v", s1, s2)
			}
			checkCached(t, vm, gvas)
		})
	}
}
