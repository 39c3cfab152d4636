package machine

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/pagetable"
)

// CheckInvariants cross-checks a layer's page table against its frame
// allocator: every mapped frame lies in bounds and is withdrawn from
// the free lists, base mappings inside reserved regions claim their
// frame, and the incremental HugeMappedPages stat matches the table.
// The table's own structural audit is included under "<name>/".
func (L *Layer) CheckInvariants() []audit.Violation {
	vs := audit.Prefix(L.Table.CheckInvariants(), L.Name+"/")
	total := L.Buddy.TotalPages()
	L.Table.ScanAll(func(m pagetable.Mapping) bool {
		n := uint64(1)
		if m.Kind == mem.Huge {
			n = mem.PagesPerHuge
		}
		if m.Frame+n > total {
			vs = append(vs, audit.Violationf(L.Name, "frame-bounds", m.VA,
				"mapping points at frame %#x past end of memory (%d pages)", m.Frame, total))
			return true
		}
		for f := m.Frame; f < m.Frame+n; f++ {
			if L.Buddy.FrameFree(f) {
				vs = append(vs, audit.Violationf(L.Name, "frame-mapped-free", f,
					"frame is mapped at %#x but sits on the free lists", m.VA))
				break
			}
		}
		if m.Kind == mem.Base {
			if r, ok := L.Buddy.ReservationAt(m.Frame / mem.PagesPerHuge); ok {
				if !r.Claimed(int(m.Frame % mem.PagesPerHuge)) {
					vs = append(vs, audit.Violationf(L.Name, "reserved-unclaimed-mapped", m.Frame,
						"frame mapped at %#x lies in reservation %d but is not claimed",
						m.VA, m.Frame/mem.PagesPerHuge))
				}
			}
		}
		return true
	})
	if want := L.Table.Mapped2M() * mem.PagesPerHuge; L.Stats.HugeMappedPages != want {
		vs = append(vs, audit.Violationf(L.Name, "stat-huge-mapped", 0,
			"Stats.HugeMappedPages = %d but the table covers %d pages with huge mappings",
			L.Stats.HugeMappedPages, want))
	}
	vs = append(vs, L.checkSwapInvariants()...)
	return vs
}

// checkSwapInvariants recomputes the swap tier's contract (swap.go):
// a page is swapped XOR resident — never both — the swapped bitmaps
// hold nSwapped bits and no empty region entry, and the cumulative
// counters account for every page that ever left through the swap
// device (out = in + dropped + still-swapped). Because every huge
// mapping makes its whole region resident, the first check also proves
// huge coverage excludes swapped pages.
func (L *Layer) checkSwapInvariants() []audit.Violation {
	var vs []audit.Violation
	regions := make([]uint64, 0, len(L.swapped))
	for idx := range L.swapped {
		regions = append(regions, idx)
	}
	slices.Sort(regions)
	var bitCount uint64
	for _, idx := range regions {
		bm := L.swapped[idx]
		if bm == ([8]uint64{}) {
			vs = append(vs, audit.Violationf(L.Name, "swap-bitmap", idx<<mem.HugeShift,
				"region has a swapped-set entry with no swapped page"))
		}
		for w, word := range bm {
			for ; word != 0; word &= word - 1 {
				bitCount++
				p := uint64(w)*64 + uint64(bits.TrailingZeros64(word))
				va := idx<<mem.HugeShift + p<<mem.PageShift
				if _, _, ok := L.Table.Lookup(va); ok {
					vs = append(vs, audit.Violationf(L.Name, "swap-resident", va,
						"page is marked swapped out but the table still maps it"))
				}
			}
		}
	}
	if bitCount != L.nSwapped {
		vs = append(vs, audit.Violationf(L.Name, "swap-bitmap", 0,
			"swapped bitmaps hold %d pages but the counter says %d", bitCount, L.nSwapped))
	}
	if want := L.Stats.SwappedInPages + L.Stats.SwapDroppedPages + L.nSwapped; L.Stats.SwappedOutPages != want {
		vs = append(vs, audit.Violationf(L.Name, "swap-count", 0,
			"Stats.SwappedOutPages = %d but in+dropped+pending = %d+%d+%d",
			L.Stats.SwappedOutPages, L.Stats.SwappedInPages,
			L.Stats.SwapDroppedPages, L.nSwapped))
	}
	return vs
}

// CheckInvariants audits one VM: both layers, the guest's private
// buddy allocator, TLB geometry, TLB coherence against the guest page
// table (huge entries require a live huge mapping, base entries a live
// translation — the shootdown obligation), and a from-scratch
// recomputation of the alignment classification that Alignment()
// derives by per-region lookups. Host-allocator invariants are checked
// once by the Machine, which owns the shared buddy.
func (vm *VM) CheckInvariants() []audit.Violation {
	vs := vm.Guest.CheckInvariants()
	vs = append(vs, audit.Prefix(vm.Guest.Buddy.CheckInvariants(), "guest/")...)
	vs = append(vs, vm.EPT.CheckInvariants()...)
	vs = append(vs, vm.TLB.CheckInvariants()...)

	vm.TLB.VisitEntries(func(va uint64, kind mem.PageSizeKind) bool {
		if kind == mem.Huge {
			if _, isHuge, _ := vm.Guest.Table.LookupHugeRegion(va); !isHuge {
				vs = append(vs, audit.Violationf("tlb", "tlb-stale-entry", va,
					"huge TLB entry but the guest no longer maps the region huge"))
			}
		} else if _, _, ok := vm.Guest.Table.Lookup(va); !ok {
			vs = append(vs, audit.Violationf("tlb", "tlb-stale-entry", va,
				"base TLB entry survives for an unmapped virtual address"))
		}
		return true
	})

	// Alignment recompute: classify every guest huge page by set
	// membership over a single EPT scan — an independent path from
	// Alignment()'s per-address LookupHugeRegion probes.
	eptHuge := make(map[uint64]bool)
	vm.EPT.Table.ScanHuge(func(m pagetable.Mapping) bool {
		eptHuge[m.VA>>mem.HugeShift] = true
		return true
	})
	var guestHuge, aligned uint64
	vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		guestHuge++
		if eptHuge[m.Frame/mem.PagesPerHuge] {
			aligned++
		}
		return true
	})
	if a := vm.Alignment(); guestHuge != a.GuestHuge || aligned != a.Aligned {
		vs = append(vs, audit.Violationf("vm", "alignment-recompute", 0,
			"Alignment() says %d/%d aligned/guest-huge, recomputation says %d/%d",
			a.Aligned, a.GuestHuge, aligned, guestHuge))
	}
	// Balloon drivers audit their own accounting (held frames vs
	// inflated count); include it when the installed driver offers it.
	if b, ok := vm.Balloon.(interface{ CheckInvariants() []audit.Violation }); ok {
		vs = append(vs, b.CheckInvariants()...)
	}
	return vs
}

// CheckInvariants audits the whole machine: the shared host allocator,
// every VM (prefixed "vmN/"), and the isolation property that no host
// frame is mapped by two VMs' EPTs.
func (m *Machine) CheckInvariants() []audit.Violation {
	vs := audit.Prefix(m.HostBuddy.CheckInvariants(), "host/")
	type owner struct {
		vm int
		va uint64
	}
	baseOwner := make(map[uint64]owner)
	hugeOwner := make(map[uint64]owner)
	for _, vm := range m.VMs {
		vs = append(vs, audit.Prefix(vm.CheckInvariants(), fmt.Sprintf("vm%d/", vm.ID))...)
		vm.EPT.Table.ScanAll(func(mp pagetable.Mapping) bool {
			if mp.Kind == mem.Huge {
				if prev, ok := hugeOwner[mp.Frame/mem.PagesPerHuge]; ok && prev.vm != vm.ID {
					vs = append(vs, audit.Violationf("machine", "ept-frame-shared", mp.Frame,
						"host block mapped by vm%d @ %#x and vm%d @ %#x",
						prev.vm, prev.va, vm.ID, mp.VA))
				} else {
					hugeOwner[mp.Frame/mem.PagesPerHuge] = owner{vm.ID, mp.VA}
				}
			} else {
				if prev, ok := baseOwner[mp.Frame]; ok && prev.vm != vm.ID {
					vs = append(vs, audit.Violationf("machine", "ept-frame-shared", mp.Frame,
						"host frame mapped by vm%d @ %#x and vm%d @ %#x",
						prev.vm, prev.va, vm.ID, mp.VA))
				} else {
					baseOwner[mp.Frame] = owner{vm.ID, mp.VA}
				}
			}
			return true
		})
	}
	for f, b := range baseOwner {
		if h, ok := hugeOwner[f/mem.PagesPerHuge]; ok && h.vm != b.vm {
			vs = append(vs, audit.Violationf("machine", "ept-frame-shared", f,
				"host frame base-mapped by vm%d inside a block huge-mapped by vm%d", b.vm, h.vm))
		}
	}
	return vs
}
