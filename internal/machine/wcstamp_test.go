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

// stampVM maps two guest virtual regions base page by base page and
// caches every page of both. Each region's first half is touched
// before either second half, so each region's guest frames span two
// guest physical regions.
func stampVM(t *testing.T) (*VM, []uint64) {
	t.Helper()
	m := NewMachine(16*mem.PagesPerHuge, DefaultCosts())
	vm := m.AddVM(8*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	var gvas []uint64
	for p := uint64(0); p < 2*mem.PagesPerHuge; p++ {
		gvas = append(gvas, v.Start+p*mem.PageSize)
	}
	const half = mem.PagesPerHuge / 2
	for _, h := range []int{0, 2, 1, 3} {
		vm.AccessN(gvas[h*half : (h+1)*half])
	}
	vm.wcRevalidate()
	for _, gva := range gvas {
		if !vm.wcHits(gva) {
			t.Fatalf("setup: %#x not cached", gva)
		}
	}
	return vm, gvas
}

// wcHits reports whether the walk cache holds a live entry for gva.
func (vm *VM) wcHits(gva uint64) bool {
	return vm.wc.hit(&vm.wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)], gva)
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

// TestWalkCacheStampWrap: when the stamp counter runs out, every entry
// is dropped and stamps restart, and the cache serves hits again.
func TestWalkCacheStampWrap(t *testing.T) {
	vm, gvas := stampVM(t)
	vm.wc.next = math.MaxUint32 - 1
	// Two dirty regions take two stamps; the second runs the counter out.
	if _, err := vm.Guest.Table.Unmap4K(gvas[0]); err != nil {
		t.Fatal(err)
	}
	gfn, _, _ := vm.Guest.Table.Lookup(gvas[mem.PagesPerHuge])
	if _, err := vm.EPT.Table.Unmap4K(gfn * mem.PageSize); err != nil {
		t.Fatal(err)
	}
	vm.wcRevalidate()
	if vm.wc.next > 8 {
		t.Fatalf("stamp counter at %d did not restart", vm.wc.next)
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
}
