package workload

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// basePol is a minimal base-page policy for tests.
type basePol struct{}

func (basePol) Name() string { return "base" }
func (basePol) OnFault(*machine.Layer, uint64, *machine.VMA) machine.Decision {
	return machine.Decision{Kind: mem.Base}
}
func (basePol) Tick(*machine.Layer) {}

func newVM(t *testing.T, guestMB int) *machine.VM {
	t.Helper()
	m := machine.NewMachine(uint64(guestMB*3)<<20>>mem.PageShift, machine.DefaultCosts())
	return m.AddVM(uint64(guestMB)<<20>>mem.PageShift, basePol{}, basePol{}, tlb.DefaultConfig())
}

func TestTable2Complete(t *testing.T) {
	specs := Table2()
	if len(specs) != 18 {
		t.Fatalf("Table2 has %d specs", len(specs))
	}
	seen := map[string]bool{}
	var sensitive, insensitive int
	for _, s := range specs {
		if s.Name == "" || s.FootprintMB <= 0 || s.RequestPages <= 0 {
			t.Errorf("bad spec: %+v", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate name %q", s.Name)
		}
		seen[s.Name] = true
		if s.TLBSensitive {
			sensitive++
		} else {
			insensitive++
		}
		if s.Pages() != uint64(s.FootprintMB)*256 {
			t.Errorf("%s: Pages = %d", s.Name, s.Pages())
		}
	}
	// Shore and SP.D are the paper's non-TLB-sensitive pair.
	if insensitive != 2 {
		t.Errorf("non-TLB-sensitive count = %d, want 2", insensitive)
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("redis")
	if err != nil || s.Name != "redis" {
		t.Fatalf("ByName(redis) = %+v, %v", s, err)
	}
	if _, err := ByName("micro"); err != nil {
		t.Fatalf("ByName(micro): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) succeeded")
	}
}

func TestStaticPopulates(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(16) // 16 MiB = 4096 pages
	w := New(spec, vm, 1)
	if w.Touched() != spec.Pages() {
		t.Fatalf("touched = %d, want %d", w.Touched(), spec.Pages())
	}
	if vm.Guest.Table.Mapped4K() != spec.Pages() {
		t.Fatalf("mapped = %d", vm.Guest.Table.Mapped4K())
	}
}

func TestGradualGrows(t *testing.T) {
	vm := newVM(t, 256)
	spec := Xapian()
	spec.FootprintMB = 32
	w := New(spec, vm, 2)
	start := w.Touched()
	if start >= spec.Pages() {
		t.Fatalf("gradual started fully populated: %d", start)
	}
	w.StepN(1000, nil)
	if w.Touched() <= start {
		t.Fatal("gradual never grew")
	}
}

// TestStepNPerRequestCosts checks the latency-capture path: StepN
// with a perReq buffer records one cost per request, each at least the
// service time, and the costs sum to the returned total.
func TestStepNPerRequestCosts(t *testing.T) {
	vm := newVM(t, 256)
	spec := Masstree()
	spec.FootprintMB = 16
	w := New(spec, vm, 3)
	perReq := make([]uint64, 10)
	total := w.StepN(len(perReq), perReq)
	var sum uint64
	for i, c := range perReq {
		if c < spec.ServiceCycles {
			t.Fatalf("request %d: %d cycles below service time %d", i, c, spec.ServiceCycles)
		}
		sum += c
	}
	if sum != total {
		t.Fatalf("per-request costs sum to %d, StepN returned %d", sum, total)
	}
}

func TestChurnRemapsVMAs(t *testing.T) {
	vm := newVM(t, 256)
	spec := Redis()
	spec.FootprintMB = 32
	spec.ChurnRate = 5 // force frequent churn
	w := New(spec, vm, 5)
	before := make([]*machine.VMA, len(w.vmas))
	copy(before, w.vmas)
	w.StepN(600, nil)
	changed := false
	for i := range before {
		if before[i] != w.vmas[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("churn never replaced a VMA")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (cycles, touched uint64) {
		vm := newVM(t, 256)
		spec := RocksDB()
		spec.FootprintMB = 32
		w := New(spec, vm, 42)
		for i := 0; i < 20; i++ {
			cycles += w.StepN(10, nil)
		}
		return cycles, w.Touched()
	}
	c1, f1 := runOnce()
	c2, f2 := runOnce()
	if c1 != c2 || f1 != f2 {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)", c1, f1, c2, f2)
	}
}

func TestTeardownFreesMemory(t *testing.T) {
	vm := newVM(t, 256)
	total := vm.Guest.Buddy.FreePages()
	spec := Micro(16)
	w := New(spec, vm, 6)
	w.Teardown()
	if vm.Guest.Buddy.FreePages() != total {
		t.Fatalf("pages leaked: %d != %d", vm.Guest.Buddy.FreePages(), total)
	}
	if len(vm.Guest.Space.VMAs()) != 0 {
		t.Fatal("VMAs survived teardown")
	}
}

func TestAccessDistributions(t *testing.T) {
	for _, pat := range []Pattern{Uniform, Zipf, Sequential, Mixed} {
		vm := newVM(t, 256)
		spec := Micro(16)
		spec.Access = pat
		w := New(spec, vm, 7)
		// All drawn pages must be inside the footprint.
		pages := make([]uint64, 1000)
		w.drawInto(pages)
		for _, p := range pages {
			if p >= spec.Pages() {
				t.Fatalf("pattern %d: page %d out of range", pat, p)
			}
		}
	}
}

func TestZipfIsSkewed(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(64)
	spec.Access = Zipf
	w := New(spec, vm, 8)
	counts := map[uint64]int{}
	const draws = 20000
	pages := make([]uint64, draws)
	w.drawInto(pages)
	for _, p := range pages {
		counts[p]++
	}
	// The hottest 1% of pages should absorb a large share.
	hot := 0
	for p, c := range counts {
		if p < spec.Pages()/100 {
			hot += c
		}
	}
	if float64(hot)/draws < 0.18 {
		t.Fatalf("zipf hot share = %.2f, want skew", float64(hot)/draws)
	}
}

func TestTinyFootprintManyVMAs(t *testing.T) {
	vm := newVM(t, 256)
	spec := Micro(1)
	spec.VMACount = 8
	w := New(spec, vm, 9)
	w.StepN(5, nil) // must not panic
}

// TestRebuildAddrsMatchesDivMod checks the run-by-run fill of addrs
// against the layout's definition: page p lives in VMA
// (p / vmaPages) mod len(vmas) at offset p mod vmaPages. The cases
// cover footprints that are not a multiple of vmaPages (so the fill
// wraps to the first VMAs again), more VMAs than pages, and a rebuild
// after one VMA moved.
func TestRebuildAddrsMatchesDivMod(t *testing.T) {
	for _, c := range []struct{ total, vmas uint64 }{
		{10, 3}, {1000, 7}, {5, 8}, {4096, 4}, {1, 1},
	} {
		space := machine.NewAddressSpace(64 * mem.HugeSize)
		w := &Workload{totalPages: c.total, vmaPages: max(c.total/c.vmas, 1)}
		for i := uint64(0); i < c.vmas; i++ {
			w.vmas = append(w.vmas, space.MMap(w.vmaPages*mem.PageSize, 3*i))
		}
		check := func() {
			t.Helper()
			for p := uint64(0); p < c.total; p++ {
				v := w.vmas[p/w.vmaPages%uint64(len(w.vmas))]
				if want := v.Start + p%w.vmaPages*mem.PageSize; w.addrs[p] != want {
					t.Fatalf("total %d, %d VMAs: addrs[%d] = %#x, want %#x",
						c.total, c.vmas, p, w.addrs[p], want)
				}
			}
		}
		w.rebuildAddrs()
		check()
		w.vmas[0] = space.MMap(w.vmaPages*mem.PageSize, 5)
		w.rebuildAddrs()
		check()
	}
}

// nextPage draws one page index from the access distribution,
// confined to the touched frontier, through math/rand's own calls:
// the page-at-a-time stream drawInto must reproduce.
func (w *Workload) nextPage() uint64 {
	limit := w.touched
	if limit == 0 {
		limit = 1
	}
	switch w.Access {
	case Uniform:
		return uint64(w.rng.Int63n(int64(limit)))
	case Zipf:
		return w.zipf.Uint64() % limit
	case Sequential:
		w.seqCursor++
		return w.seqCursor % limit
	default: // Mixed
		if w.rng.Intn(2) == 0 {
			return w.zipf.Uint64() % limit
		}
		return uint64(w.rng.Int63n(int64(limit)))
	}
}

// refStepOne is the one-access-at-a-time reference for StepOne: each
// page is drawn by nextPage and accessed by its own VM.Access call,
// growth touches one page per call, and churn repopulates the new VMA
// page by page from its start address. Run on a VM whose walk cache
// is disabled, every access is accessUncached plus tlb.AccessNested,
// so the reference shares no hit-path or batch-kernel code with
// AccessN. It reports whether the request churned.
func refStepOne(w *Workload) (cycles uint64, churned bool) {
	cycles = w.ServiceCycles
	for a := 0; a < w.RequestPages; a++ {
		cycles += w.vm.Access(w.addrs[w.nextPage()])
	}
	if w.Style != Gradual {
		return cycles, false
	}
	for n := min(w.touched+2, w.totalPages); w.touched < n; w.touched++ {
		w.vm.Access(w.addrs[w.touched])
	}
	if w.ChurnRate == 0 || w.rng.Float64() >= w.ChurnRate/100 {
		return cycles, false
	}
	i := w.rng.Intn(len(w.vmas))
	w.vm.Guest.UnmapVMA(w.vmas[i])
	off := uint64(w.rng.Intn(mem.PagesPerHuge))
	w.vmas[i] = w.vm.Guest.Space.MMap(w.vmaPages*mem.PageSize, off)
	w.rebuildAddrs()
	share := w.touched / uint64(len(w.vmas))
	for p := uint64(0); p < share && p < w.vmaPages; p++ {
		w.vm.Access(w.vmas[i].Start + p*mem.PageSize)
	}
	return cycles, true
}

// vmState is the simulated state two equivalent runs must agree on.
type vmState struct {
	touched    uint64
	tlb        tlb.Stats
	guest, ept machine.LayerStats
	align      machine.AlignStats
}

func stateOf(w *Workload) vmState {
	return vmState{w.Touched(), w.vm.TLB.Stats(), w.vm.Guest.Stats, w.vm.EPT.Stats, w.vm.Alignment()}
}

// TestStepNMatchesStepOne is the access-path equivalence property
// promised in the StepOne and StepN contracts: for every Table 2
// workload spec, the Figure 2 micro spec, and a Redis spec churning
// about once every twenty requests — covering Static and Gradual
// styles, every access pattern, and VMA churn — n requests through
// StepOne, bulk StepN (nil perReq) and latency-capturing StepN consume
// the identical RNG stream and charge the identical cycles as the
// refStepOne reference, leaving the frontier, TLB, layer statistics
// and alignment in identical state.
func TestStepNMatchesStepOne(t *testing.T) {
	churny := Redis()
	churny.Name = "redis-churn"
	churny.ChurnRate = 5
	specs := append(Table2(), Micro(8), churny)
	for _, spec := range specs {
		spec := spec
		if spec.FootprintMB > 64 {
			spec.FootprintMB = 64 // keep the grid fast; style/pattern is what matters
		}
		t.Run(spec.Name, func(t *testing.T) {
			const reqs = 300

			vmRef := newVM(t, 192)
			vmRef.SetWalkCacheEnabled(false)
			wRef := New(spec, vmRef, 42)
			var refTotal uint64
			refPer := make([]uint64, reqs)
			churns := 0
			for i := range refPer {
				c, churned := refStepOne(wRef)
				refPer[i] = c
				refTotal += c
				if churned {
					churns++
				}
			}
			if spec.ChurnRate >= 1 && churns == 0 {
				t.Fatal("churn-heavy spec never churned; the cell checks nothing")
			}

			wOne := New(spec, newVM(t, 192), 42)
			var oneTotal uint64
			onePer := make([]uint64, reqs)
			for i := range onePer {
				onePer[i] = wOne.StepOne()
				oneTotal += onePer[i]
			}

			wBulk := New(spec, newVM(t, 192), 42)
			bulkTotal := wBulk.StepN(reqs, nil)

			wPer := New(spec, newVM(t, 192), 42)
			perReq := make([]uint64, reqs)
			perTotal := wPer.StepN(reqs, perReq)

			if oneTotal != refTotal || bulkTotal != refTotal || perTotal != refTotal {
				t.Fatalf("cycles: StepOne %d, bulk %d, perReq %d, reference %d",
					oneTotal, bulkTotal, perTotal, refTotal)
			}
			for i := range refPer {
				if onePer[i] != refPer[i] || perReq[i] != refPer[i] {
					t.Fatalf("request %d: StepOne %d, perReq %d, reference %d",
						i, onePer[i], perReq[i], refPer[i])
				}
			}
			want := stateOf(wRef)
			for _, run := range []struct {
				name string
				w    *Workload
			}{{"StepOne", wOne}, {"bulk", wBulk}, {"perReq", wPer}} {
				if got := stateOf(run.w); got != want {
					t.Fatalf("%s state diverged\ngot:       %+v\nreference: %+v", run.name, got, want)
				}
			}
		})
	}
}
