package machine

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/pagetable"
)

// alignmentScanAll is Alignment's reference: it marks the GPA region of
// every guest mapping, base and huge, in a map filled by a walk of the
// whole guest table, and counts the EPT huge pages over marked regions.
func alignmentScanAll(vm *VM) AlignStats {
	var s AlignStats
	used := make(map[uint64]bool)
	vm.Guest.Table.ScanAll(func(mp pagetable.Mapping) bool {
		if mp.Kind == mem.Huge {
			s.GuestHuge++
			if _, isHuge, _ := vm.EPT.Table.LookupHugeRegion(mp.Frame * mem.PageSize); isHuge {
				s.Aligned++
			}
		}
		used[mp.Frame/mem.PagesPerHuge] = true
		return true
	})
	vm.EPT.Table.ScanHuge(func(mp pagetable.Mapping) bool {
		if used[mp.VA>>mem.HugeShift] {
			s.HostHuge++
		}
		return true
	})
	return s
}

// TestAlignmentMatchesScanAll drives VMs with base and huge policies at
// either layer through random accesses, guest and EPT promotions and
// demotions, eager EPT huge mappings, VMA teardowns and process resets,
// which leave stale EPT huge pages that no guest mapping uses, and
// requires Alignment's three counts to equal the reference's after
// every step. The steps must reach the three states that tell the
// two apart from simpler counts: an aligned pair, an EPT huge page used
// through guest base pages, and a stale EPT huge page.
func TestAlignmentMatchesScanAll(t *testing.T) {
	pols := []Policy{basePolicy{}, hugePolicy{}}
	var aligned, viaBase, stale bool
	for seed := int64(0); seed < 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, vm := newTestMachine(pols[rng.Intn(2)], pols[rng.Intn(2)])
		mmap := func() {
			vm.Guest.Space.MMap(uint64(1+rng.Intn(6))*mem.HugeSize+uint64(rng.Intn(3))*mem.PageSize*100, 0)
		}
		mmap()
		mmap()
		// page picks a page of a random guest VMA.
		page := func() uint64 {
			vmas := vm.Guest.Space.VMAs()
			v := vmas[rng.Intn(len(vmas))]
			return v.Start + uint64(rng.Int63n(int64(v.Pages())))*mem.PageSize
		}
		for step := 0; step < 60; step++ {
			op := rng.Intn(8)
			switch op {
			case 0, 1: // access
				for range 1 + rng.Intn(40) {
					vm.Access(page())
				}
			case 2: // guest migration promotion
				vm.Guest.PromoteMigrate(page(), nil)
			case 3: // guest demotion
				vm.Guest.Demote(page())
			case 4, 5: // EPT promotion or demotion behind a mapped page
				gfn, _, ok := vm.Guest.Table.Lookup(page())
				if !ok {
					continue
				}
				if op == 4 {
					vm.EPT.PromoteMigrate(gfn*mem.PageSize, nil)
				} else {
					vm.EPT.Demote(gfn * mem.PageSize)
				}
			case 6: // eager EPT huge page over a random GPA region
				vm.EPT.MapHugeEager(uint64(rng.Intn(testGuestPages/mem.PagesPerHuge)) * mem.HugeSize)
			case 7: // tear down a VMA, or the whole process
				if rng.Intn(4) == 0 {
					vm.ResetGuestProcess()
				} else {
					vmas := vm.Guest.Space.VMAs()
					vm.Guest.UnmapVMA(vmas[rng.Intn(len(vmas))])
				}
				for len(vm.Guest.Space.VMAs()) < 2 {
					mmap()
				}
			}
			got, want := vm.Alignment(), alignmentScanAll(vm)
			if got != want {
				t.Fatalf("seed %d step %d (op %d): Alignment %+v, ScanAll reference %+v", seed, step, op, got, want)
			}
			aligned = aligned || want.Aligned > 0
			viaBase = viaBase || want.HostHuge > want.Aligned
			stale = stale || vm.EPT.Table.Mapped2M() > want.HostHuge
		}
	}
	if !aligned || !viaBase || !stale {
		t.Fatalf("steps never reached: aligned pair %v, EPT huge page used through base pages %v, stale EPT huge page %v",
			aligned, viaBase, stale)
	}
}
