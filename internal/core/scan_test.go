package core

import (
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/tlb"
)

// mhps is one MHPS result: everything Scan publishes, plus the cycles
// it charged.
type mhps struct {
	guestHuge, hostHuge []bool
	presence            []int32
	domBase             map[uint64]uint64
	domCount            map[uint64]int
	reverse             map[uint64][]RevEntry
	cycles              uint64
}

// fullWalkScan is the reference MHPS: a ScanHuge of the EPT and a
// ScanAll of every guest mapping, the scan Gemini.Scan ran before it
// read per-region counts.
func fullWalkScan(vm *machine.VM) mhps {
	n := (vm.GuestPages() + mem.PagesPerHuge - 1) / mem.PagesPerHuge
	r := mhps{
		guestHuge: make([]bool, n), hostHuge: make([]bool, n), presence: make([]int32, n),
		domBase: map[uint64]uint64{}, domCount: map[uint64]int{}, reverse: map[uint64][]RevEntry{},
	}
	costs := vm.EPT.Costs
	vm.EPT.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if hi := m.VA >> mem.HugeShift; hi < n {
			r.hostHuge[hi] = true
		}
		r.cycles += costs.ScanRegion
		return true
	})
	perRegion := make(map[uint64]map[uint64]int)
	vm.Guest.Table.ScanAll(func(m pagetable.Mapping) bool {
		hi := m.Frame / mem.PagesPerHuge
		if hi >= n {
			return true
		}
		if m.Kind == mem.Huge {
			r.guestHuge[hi] = true
			return true
		}
		r.presence[hi]++
		if !r.hostHuge[hi] {
			return true
		}
		pr := perRegion[hi]
		if pr == nil {
			pr = make(map[uint64]int)
			perRegion[hi] = pr
		}
		pr[m.VA&^uint64(mem.HugeSize-1)]++
		if len(r.reverse[hi]) < mem.PagesPerHuge {
			r.reverse[hi] = append(r.reverse[hi], RevEntry{VA: m.VA, Frame: m.Frame})
		}
		return true
	})
	for hi, pr := range perRegion {
		var bestVA uint64
		best := -1
		for va, c := range pr {
			if c > best || (c == best && va < bestVA) {
				bestVA, best = va, c
			}
		}
		r.domBase[hi], r.domCount[hi] = bestVA, best
	}
	r.cycles += uint64(len(perRegion)) * costs.ScanRegion
	return r
}

// tableDriver applies random legal mutations to one page table over a
// window of input regions, keeping every output frame mapped at most
// once.
type tableDriver struct {
	t       *pagetable.Table
	rng     *rand.Rand
	vaBase  uint64
	regions uint64 // input regions in the window
	frames  uint64 // output frames drawn from [0, frames)
	used    map[uint64]bool
	// huge maps huge pages only (base pages come from splits).
	huge bool
}

func (d *tableDriver) va() uint64 {
	return d.vaBase + d.rng.Uint64N(d.regions*mem.PagesPerHuge)*mem.PageSize
}

func (d *tableDriver) region() uint64 {
	return d.vaBase + d.rng.Uint64N(d.regions)*mem.HugeSize
}

// freeBlock returns a 512-aligned block of unused frames, or false.
func (d *tableDriver) freeBlock() (uint64, bool) {
	for range 8 {
		b := d.rng.Uint64N(d.frames/mem.PagesPerHuge) * mem.PagesPerHuge
		ok := true
		for f := b; f < b+mem.PagesPerHuge && ok; f++ {
			ok = !d.used[f]
		}
		if ok {
			return b, true
		}
	}
	return 0, false
}

func (d *tableDriver) step() {
	op := d.rng.IntN(8)
	if d.huge && op < 2 {
		op = 2
	}
	switch op {
	case 0, 1: // Map4K to an unused frame
		f := d.rng.Uint64N(d.frames)
		if d.used[f] {
			return
		}
		if _, err := d.t.Map4K(d.va(), f); err == nil {
			d.used[f] = true
		}
	case 2: // Map2M, or fill a region with 512 contiguous base pages
		// (all of them, to collapse later, or most of them)
		b, ok := d.freeBlock()
		if !ok {
			return
		}
		va := d.region()
		if d.huge || d.rng.IntN(2) == 0 {
			if d.t.Map2M(va, b) == nil {
				for f := b; f < b+mem.PagesPerHuge; f++ {
					d.used[f] = true
				}
			}
			return
		}
		if _, huge, n := d.t.LookupHugeRegion(va); huge || n > 0 {
			return
		}
		skip := d.rng.IntN(2) == 0
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			if skip && d.rng.IntN(16) == 0 {
				continue
			}
			if _, err := d.t.Map4K(va+i*mem.PageSize, b+i); err != nil {
				panic(err)
			}
			d.used[b+i] = true
		}
	case 3: // Unmap4K
		if f, err := d.t.Unmap4K(d.va()); err == nil {
			delete(d.used, f)
		}
	case 4: // Unmap2M
		if b, err := d.t.Unmap2M(d.region()); err == nil {
			for f := b; f < b+mem.PagesPerHuge; f++ {
				delete(d.used, f)
			}
		}
	case 5: // Collapse
		d.t.Collapse(d.region())
	case 6: // Split
		d.t.Split(d.region())
	case 7: // Remap4K to an unused frame
		f := d.rng.Uint64N(d.frames)
		if d.used[f] {
			return
		}
		if old, err := d.t.Remap4K(d.va(), f); err == nil {
			delete(d.used, old)
			d.used[f] = true
		}
	}
}

// TestScanMatchesFullWalk drives random map, unmap, collapse, split
// and remap sequences on both of a Gemini VM's tables and requires
// every MHPS output, and the background cycles charged for the scan,
// to equal the full-walk reference after every round. Guest frames
// reach past guest memory, which the scan must ignore.
func TestScanMatchesFullWalk(t *testing.T) {
	const regions = 16
	for seed := range uint64(6) {
		m := machine.NewMachine(4*regions*mem.PagesPerHuge, machine.DefaultCosts())
		g, _, _ := New(Config{})
		vm := m.AddVM(regions*mem.PagesPerHuge, policy.BaseOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
		g.Attach(vm)
		rng := rand.New(rand.NewPCG(seed, 25))
		guest := &tableDriver{t: vm.Guest.Table, rng: rng, vaBase: 1 << 30, regions: 24,
			frames: (regions + 2) * mem.PagesPerHuge, used: map[uint64]bool{}}
		ept := &tableDriver{t: vm.EPT.Table, rng: rng, vaBase: 0, regions: regions,
			frames: 4 * regions * mem.PagesPerHuge, used: map[uint64]bool{}, huge: true}
		withType2 := 0
		for round := range uint64(60) {
			for range 40 {
				if rng.IntN(3) == 0 {
					ept.step()
				} else {
					guest.step()
				}
			}
			want := fullWalkScan(vm)
			before := vm.EPT.Stats.BackgroundCycles
			g.Scan(round + 1)
			got := mhps{
				guestHuge: g.guestHugeGPA, hostHuge: g.hostHugeGPA, presence: g.guestPresence,
				domBase: g.dominantGVABase, domCount: g.dominantCount, reverse: g.reverse,
				cycles: vm.EPT.Stats.BackgroundCycles - before,
			}
			sameScan(t, seed, round, got, want)
			if len(got.reverse) > 0 {
				withType2++
			}
		}
		for _, tb := range []*pagetable.Table{vm.Guest.Table, vm.EPT.Table} {
			if vs := tb.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("seed %d: table corrupt: %s", seed, audit.Report(vs))
			}
		}
		if withType2 < 20 {
			t.Fatalf("seed %d: only %d of 60 scans found type-2 material; the test exercises too little", seed, withType2)
		}
	}
}

func sameScan(t *testing.T, seed, round uint64, got, want mhps) {
	t.Helper()
	switch {
	case !slices.Equal(got.guestHuge, want.guestHuge):
		t.Fatalf("seed %d round %d: guest huge set %v, full walk %v", seed, round, got.guestHuge, want.guestHuge)
	case !slices.Equal(got.hostHuge, want.hostHuge):
		t.Fatalf("seed %d round %d: host huge set %v, full walk %v", seed, round, got.hostHuge, want.hostHuge)
	case !slices.Equal(got.presence, want.presence):
		t.Fatalf("seed %d round %d: presence %v, full walk %v", seed, round, got.presence, want.presence)
	case !maps.Equal(got.domBase, want.domBase) || !maps.Equal(got.domCount, want.domCount):
		t.Fatalf("seed %d round %d: dominant GVA %v/%v, full walk %v/%v",
			seed, round, got.domBase, got.domCount, want.domBase, want.domCount)
	case !maps.EqualFunc(got.reverse, want.reverse, slices.Equal[[]RevEntry]):
		t.Fatalf("seed %d round %d: reverse lists differ from the full walk's", seed, round)
	case got.cycles != want.cycles:
		t.Fatalf("seed %d round %d: scan charged %d cycles, full walk %d", seed, round, got.cycles, want.cycles)
	}
}
