package machine

import (
	"testing"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/tlb"
)

// TestWalkCacheGuestEntryIs32Bytes pins the entry layouts: a guest-side
// entry is 32 bytes, so the 1024 of them fill 32 KiB, and an EPT-side
// entry is a leaf pointer and one word.
func TestWalkCacheGuestEntryIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(wcGuest{}); n != 32 {
		t.Fatalf("wcGuest is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(wcRegion{}); n != 16 {
		t.Fatalf("wcRegion is %d bytes, want 16", n)
	}
}

// regionLayout builds a VM whose guest and EPT faults take the given
// policies' kinds, with two guest virtual regions mapped in its
// address space but nothing touched, and returns their pages.
func regionLayout(guest, host Policy) (*VM, []uint64) {
	m := NewMachine(16*mem.PagesPerHuge, DefaultCosts())
	vm := m.AddVM(8*mem.PagesPerHuge, guest, host, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	var gvas []uint64
	for p := uint64(0); p < 2*mem.PagesPerHuge; p++ {
		gvas = append(gvas, v.Start+p*mem.PageSize)
	}
	return vm, gvas
}

// baseBatches is the access order of baseVM: each region's first half
// is touched before either second half, so each region's guest frames
// span two guest physical regions.
func baseBatches(gvas []uint64) [][]uint64 {
	const half = mem.PagesPerHuge / 2
	return [][]uint64{gvas[:half], gvas[2*half : 3*half], gvas[half : 2*half], gvas[3*half:]}
}

// baseVM maps two guest virtual regions base page by base page, in
// baseBatches order, and caches both through their leaves.
func baseVM(t *testing.T) (*VM, []uint64) {
	t.Helper()
	vm, gvas := regionLayout(basePolicy{}, basePolicy{})
	for _, b := range baseBatches(gvas) {
		vm.AccessN(b)
	}
	checkCached(t, vm, gvas)
	return vm, gvas
}

// hugeVM maps two guest virtual regions huge at both layers and caches
// both through their huge frames.
func hugeVM(t *testing.T) (*VM, []uint64) {
	t.Helper()
	vm, gvas := regionLayout(hugePolicy{}, hugePolicy{})
	vm.AccessN(gvas)
	checkCached(t, vm, gvas)
	return vm, gvas
}

// checkCached fails the test unless every page of gvas is cached and
// the cache passes its audit rule.
func checkCached(t *testing.T, vm *VM, gvas []uint64) {
	t.Helper()
	vm.wcRevalidate()
	for _, gva := range gvas {
		if !vm.wcHits(gva) {
			t.Fatalf("setup: %#x not cached", gva)
		}
	}
	if vs := vm.checkWalkCache(); len(vs) != 0 {
		t.Fatalf("setup: walk cache drifted: %v", vs)
	}
}

// wcHits reports whether the walk cache's entries translate gva at
// both layers, as AccessN's hit test does, without marking anything.
func (vm *VM) wcHits(gva uint64) bool {
	wc := &vm.wc
	g := &wc.guest[gva>>mem.HugeShift&(wcGuestSize-1)]
	if g.tag != gva>>mem.HugeShift {
		return false
	}
	gfn, _, ok := g.at(gva >> mem.PageShift & (mem.PagesPerHuge - 1))
	if !ok || gfn/mem.PagesPerHuge >= uint64(len(wc.ept)) {
		return false
	}
	_, _, ok = wc.ept[gfn/mem.PagesPerHuge].at(gfn & (mem.PagesPerHuge - 1))
	return ok
}

// TestWalkCacheInvalidatesPerRegion: a destructive mutation clears the
// entry of the region it touched, at either layer, and nothing else; a
// saturated log clears everything.
func TestWalkCacheInvalidatesPerRegion(t *testing.T) {
	vm, gvas := baseVM(t)
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
	if *vm.wc.guest != [wcGuestSize]wcGuest{} {
		t.Fatal("a saturated guest log left guest entries")
	}
}

// TestWalkCacheArenaReuse: a VM that takes over a pooled arena starts
// with every entry clear, even where the previous VM cached regions
// at the addresses the new one uses, and charges what an uncached twin
// charges.
func TestWalkCacheArenaReuse(t *testing.T) {
	for _, tc := range []struct {
		name       string
		build      func(*testing.T) (*VM, []uint64)
		guest, ept Policy
		batches    func([]uint64) [][]uint64
	}{
		{"page entries", baseVM, basePolicy{}, basePolicy{}, baseBatches},
		{"region entries", hugeVM, hugePolicy{}, hugePolicy{}, func(g []uint64) [][]uint64 { return [][]uint64{g} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old, _ := tc.build(t)
			ar := old.wcArena
			old.wcRelease()
			// The twins replay the old VM's layout and access order, so
			// every region the old VM cached is one the new VM uses.
			vm, gvas := regionLayout(tc.guest, tc.ept)
			ref, _ := regionLayout(tc.guest, tc.ept)
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
			if *vm.wc.guest != [wcGuestSize]wcGuest{} {
				t.Fatal("a recycled arena kept guest entries")
			}
			for r, e := range vm.wc.ept {
				if e != (wcRegion{}) {
					t.Fatalf("a recycled arena kept the entry of guest physical region %d", r)
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

// TestAuditCatchesWalkCacheDrift plants the two ways an entry can go
// stale — a leaf pointer that is not its region's, a huge frame base
// that is not its region's — and requires the walk-cache rule to
// report each, while an entry a pending log names is not checked.
func TestAuditCatchesWalkCacheDrift(t *testing.T) {
	vm, gvas := baseVM(t)
	regionB := gvas[mem.PagesPerHuge]
	gA := &vm.wc.guest[gvas[0]>>mem.HugeShift&(wcGuestSize-1)]
	gB := &vm.wc.guest[regionB>>mem.HugeShift&(wcGuestSize-1)]
	gA.leaf = gB.leaf
	expectViolations(t, vm.CheckInvariants(), "walk-cache")
	// A pending log entry for region A exempts its entry: the next
	// revalidation clears it.
	if _, err := vm.Guest.Table.Unmap4K(gvas[1]); err != nil {
		t.Fatal(err)
	}
	if vs := vm.checkWalkCache(); len(vs) != 0 {
		t.Fatalf("an entry a pending log names was checked: %v", vs)
	}

	hvm, hgvas := hugeVM(t)
	gfn, _, _ := hvm.Guest.Table.Lookup(hgvas[0])
	hvm.wc.ept[gfn/mem.PagesPerHuge].huge += mem.PagesPerHuge
	expectViolations(t, hvm.CheckInvariants(), "walk-cache")
}
