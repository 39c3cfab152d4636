package machine

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// TestFaultRefRetakenAfterDirectReclaim pins the fault path's ref
// contract on an overcommitted host. Host memory is full, so the EPT
// first touch of a fresh guest page runs direct reclaim, which swaps a
// region out and bumps the EPT table's version before the fault maps
// the page. The accessed bits must land on the live PTEs, and the
// walk-cache entry must match fresh LookupRefs of both tables.
//
// In the second case the reclaim hook also rebuilds the guest region
// holding the page (unmap, map huge, split), which detaches the guest
// leaf the guest fault handed out a ref into. The access must retake
// the guest ref, so the live PTE's bit is set, and must not cache the
// translation it resolved before the guest table moved.
func TestFaultRefRetakenAfterDirectReclaim(t *testing.T) {
	const hostPages = 4 * mem.PagesPerHuge
	for _, guestMoves := range []bool{false, true} {
		m := NewMachine(hostPages, DefaultCosts())
		m.EnableSwap(SwapConfig{})
		vm := m.AddVM(4*hostPages, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
		v := vm.Guest.Space.MMap(2*hostPages*mem.PageSize, 0)
		for p := uint64(0); p < hostPages; p++ {
			vm.Access(v.Start + p*mem.PageSize)
		}
		if free := m.HostBuddy.FreePages(); free != 0 {
			t.Fatalf("setup: host has %d free pages, want 0", free)
		}
		gva := v.Start + hostPages*mem.PageSize
		var faultGPA uint64
		if guestMoves {
			reclaim := vm.EPT.AllocFallback
			vm.EPT.AllocFallback = func(need uint64) bool {
				g := vm.Guest
				gfn, _, _ := g.Table.Lookup(gva)
				faultGPA = gfn * mem.PageSize
				region := gva &^ uint64(mem.HugeSize-1)
				for p := uint64(0); p < mem.PagesPerHuge; p++ {
					if f, err := g.Table.Unmap4K(region + p*mem.PageSize); err == nil {
						g.Buddy.Free(f, 0)
					}
				}
				block, err := g.Buddy.Alloc(mem.HugeOrder)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Table.Map2M(region, block); err != nil {
					t.Fatal(err)
				}
				if err := g.Table.Split(region); err != nil {
					t.Fatal(err)
				}
				return reclaim(need)
			}
		}
		gVer, eVer := vm.Guest.Table.Version(), vm.EPT.Table.Version()
		vm.Access(gva)
		if vm.EPT.Stats.SwappedOutPages == 0 || vm.EPT.Table.Version() == eVer {
			t.Fatalf("moves=%v: the first touch ran no direct reclaim", guestMoves)
		}
		if moved := vm.Guest.Table.Version() != gVer; moved != guestMoves {
			t.Fatalf("moves=%v: guest table version moved=%v", guestMoves, moved)
		}
		gfn, gKind, gRef, ok := vm.Guest.Table.LookupRef(gva)
		if !ok || !vm.Guest.Table.Accessed(gva) {
			t.Fatalf("moves=%v: live guest PTE of %#x not marked accessed", guestMoves, gva)
		}
		if !guestMoves {
			faultGPA = gfn * mem.PageSize
		}
		if !vm.EPT.Table.Accessed(faultGPA) {
			t.Fatalf("moves=%v: EPT PTE of %#x not marked accessed", guestMoves, faultGPA)
		}

		vm.wcRevalidate()
		ent := vm.wc.entries[(gva>>mem.PageShift)&(walkCacheSize-1)]
		cached := vm.wc.hit(&ent, gva)
		if cached == guestMoves {
			t.Fatalf("moves=%v: walk-cache entry cached=%v", guestMoves, cached)
		}
		if cached {
			_, hKind, eRef, ok := vm.EPT.Table.LookupRef(gfn * mem.PageSize)
			_, entGKind, entHKind := ent.kinds()
			if !ok || ent.gfn != gfn || entGKind != gKind || entHKind != hKind ||
				ent.gRef != gRef || ent.eRef != eRef {
				t.Fatalf("walk-cache entry %+v does not match fresh LookupRefs "+
					"(gfn %#x %v, ept %v)", ent, gfn, gKind, hKind)
			}
		}
		if vs := m.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("moves=%v: machine dirty:\n%s", guestMoves, audit.Report(vs))
		}
	}
}

// TestUnmapVMAAllocatesNothing pins UnmapVMA's region-at-a-time
// teardown: unmapping a VMA of base pages and one huge mapping,
// spread over several unaligned 2 MiB regions, allocates nothing. Each
// run maps the same frames back through the table (reusing its nodes
// and reverse chunks) and puts the VMA back in the space, so only the
// teardown is under test.
func TestUnmapVMAAllocatesNothing(t *testing.T) {
	_, vm := newTestMachine(basePolicy{}, basePolicy{})
	L := vm.Guest
	v := L.Space.MMap(4*mem.HugeSize, 7)
	hugeVA := (v.Start + mem.HugeSize) &^ uint64(mem.HugeSize-1)
	populate := func() {
		for va := v.Start; va < v.End(); va += mem.PageSize {
			if va>>mem.HugeShift == hugeVA>>mem.HugeShift {
				continue
			}
			f, err := L.Buddy.Alloc(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := L.Table.Map4K(va, f); err != nil {
				t.Fatal(err)
			}
		}
		block, err := L.Buddy.Alloc(mem.HugeOrder)
		if err != nil {
			t.Fatal(err)
		}
		if err := L.Table.Map2M(hugeVA, block); err != nil {
			t.Fatal(err)
		}
		L.Stats.HugeMappedPages += mem.PagesPerHuge
	}
	populate()
	spaceVMAs := len(L.Space.VMAs())
	allocs := testing.AllocsPerRun(20, func() {
		L.UnmapVMA(v)
		if L.MappedPages() != 0 || len(L.Space.VMAs()) != spaceVMAs-1 {
			t.Fatalf("UnmapVMA left %d pages, %d VMAs", L.MappedPages(), len(L.Space.VMAs()))
		}
		L.Space.vmas = append(L.Space.vmas, v)
		populate()
	})
	if allocs != 0 {
		t.Fatalf("UnmapVMA + repopulate allocated %v times per run, want 0", allocs)
	}
}
