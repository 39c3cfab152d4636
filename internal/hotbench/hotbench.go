// Package hotbench defines the hot-path microbenchmark suite: one
// case per layer of the access pipeline (TLB lookup, native and
// nested walk costing, a miss-heavy TLB batch, page-table walk, the
// cached and uncached access paths, the walk-cache refill of a
// promoted region, cached accesses to regions huge at one layer only,
// and demand faulting one page and
// an ascending run, the run with base pages and with GEMINI's
// placement)
// plus the tick side's structural costs (a TLB region flush, buddy
// allocation on fragmented memory, a region's fragment-and-recover
// frees, the fragmenter's release of one region and its fragmentation
// of a guest, a compaction that aborts, a region's swap round trip, a
// demote and re-collapse of one huge page), shared between
// `go test -bench` and paperbench's -bench-export mode so both always
// measure the same code with the same names. The suite pins the
// performance contract of DESIGN.md §7: the steady-state access path
// allocates nothing (TestAccessSteadyStateZeroAllocs) and regressions
// beyond tolerance against the committed BENCH_hotpath.json baseline
// fail CI.
package hotbench

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Case is one microbenchmark: a name stable across releases (it keys
// the committed baseline) and a standard benchmark body.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Suite returns the hot-path cases in pipeline order, outermost last.
func Suite() []Case {
	return []Case{
		{"TLBLookup", benchTLBLookup},
		{"TLBNativeWalk", benchTLBNativeWalk},
		{"TLBNestedWalk", benchTLBNestedWalk},
		{"TLBBatchMissHeavy", benchTLBBatchMissHeavy},
		{"PageTableWalk", benchPageTableWalk},
		{"AccessSteadyState", benchAccessSteadyState},
		{"AccessUncached", benchAccessUncached},
		{"AccessAcrossMutation", benchAccessAcrossMutation},
		{"AccessHugeRefill", benchAccessHugeRefill},
		{"AccessOneLayerHuge", benchAccessOneLayerHuge},
		{"FullFault", benchFullFault},
		{"PopulateRun", benchPopulateRun},
		{"PopulateRunGemini", benchPopulateRunGemini},
		{"MicroSweep", benchMicroSweep},
		{"TLBFlushHugeRegion", benchTLBFlushHugeRegion},
		{"BuddyAllocFragmented", benchBuddyAllocFragmented},
		{"BuddyFreeMask", benchBuddyFreeMask},
		{"FragReleaseRegion", benchFragReleaseRegion},
		{"FragmentTo", benchFragmentTo},
		{"CompactRegionAbort", benchCompactRegionAbort},
		{"SwapRegionRoundTrip", benchSwapRegionRoundTrip},
		{"DemoteCollapseCycle", benchDemoteCollapseCycle},
	}
}

// ByName returns the named case, or panics: a typo in a caller is a
// programming error, not a runtime condition.
func ByName(name string) Case {
	for _, c := range Suite() {
		if c.Name == name {
			return c
		}
	}
	panic("hotbench: no case named " + name)
}

// benchPages is the working set of the fixed-stream cases: large
// enough to exercise TLB and page-walk-cache misses, small enough to
// set up in microseconds.
const benchPages = 1 << 14

// addrStream returns a precomputed page-granular address stream over
// n pages, scrambled with a fixed LCG so set-indexed structures see
// realistic conflict behaviour. Deterministic: the suite never reads
// a clock or seed.
func addrStream(n int) []uint64 {
	addrs := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = (x % benchPages) << mem.PageShift
	}
	return addrs
}

// benchTLBLookup measures a pure second-level TLB probe on a warm
// TLB: the innermost operation of every access.
func benchTLBLookup(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	for _, va := range addrs {
		t.Insert(va, mem.Base)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095], mem.Base)
	}
}

// benchTLBNativeWalk measures one-dimensional walk costing (the
// page-walk-cache probe plus level counting) as charged on a native
// TLB miss.
func benchTLBNativeWalk(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.NativeWalkRefs(addrs[i&4095], mem.Base)
	}
}

// benchTLBNestedWalk measures two-dimensional walk costing — both
// page-walk caches plus the (g+1)(h+1)-1 reference count of §2.1 —
// as charged on a nested TLB miss.
func benchTLBNestedWalk(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		va := addrs[i&4095]
		t.NestedWalkRefs(va, mem.Base, va, mem.Base)
	}
}

// benchTLBBatchMissHeavy measures one AccessNestedBatch call over
// 1,024 staged accesses to random base pages of a 2^20-page pool, the
// batches taken in turn from 16 pre-staged ones. Nearly every
// access misses, evicts a live way and charges a nested walk, so this
// is the case that times the victim choice, which TLBLookup and
// AccessSteadyState (mostly hits) do not reach.
func benchTLBBatchMissHeavy(b *testing.B) {
	// 16 batches of 1,024 draws cover about 16,000 distinct pages, ten
	// times the default TLB's 1,536 entries.
	const missBatches, missBatch = 16, 1024
	const n = missBatches * missBatch
	t := tlb.New(tlb.DefaultConfig())
	vas := make([]uint64, n)
	sis := make([]uint32, n)
	metas := make([]uint8, n)
	meta := tlb.PackKinds(mem.Base, mem.Base, mem.Base)
	x := uint64(0x2545f4914f6cdd1d)
	for i := range vas {
		x = x*6364136223846793005 + 1442695040888963407
		vas[i] = (x >> 44) << mem.PageShift
		sis[i] = t.SetIndexOf(vas[i], mem.Base)
		metas[i] = meta
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % missBatches * missBatch
		t.AccessNestedBatch(vas[k:k+missBatch], vas[k:k+missBatch], sis[k:k+missBatch], metas[k:k+missBatch])
	}
}

// benchPageTableWalk measures one radix page-table lookup over a
// fully mapped working set: the per-level pointer chase the walk
// cache exists to skip.
func benchPageTableWalk(b *testing.B) {
	t := pagetable.New()
	for pn := uint64(0); pn < benchPages; pn++ {
		t.Map4K(pn<<mem.PageShift, pn)
	}
	addrs := addrStream(4096)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.Lookup(addrs[i&4095])
	}
}

// steadyVM builds a one-VM machine running the Figure 2 micro
// workload and warms it until faults subside, leaving the system in
// the steady state the Figure 2 sweep spends its time in.
func steadyVM(footprintMB int) (*machine.Machine, *machine.VM, *workload.Workload) {
	spec := workload.Micro(footprintMB)
	guestPages := uint64(footprintMB*4) << 20 >> mem.PageShift
	if min := uint64(256) << 20 >> mem.PageShift; guestPages < min {
		guestPages = min
	}
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVM(guestPages, policy.HugeOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
	w := workload.New(spec, vm, 1)
	for i := 0; i < 50000; i++ {
		w.StepOne()
	}
	return m, vm, w
}

// benchAccessSteadyState measures the full cached access path —
// walk-cache hit, heat bookkeeping, accessed bits, TLB access, stall
// draining — in the steady state. This is the case the 0-alloc
// invariant is pinned on: TestAccessSteadyStateZeroAllocs and the
// committed baseline both require 0 allocs/op here.
func benchAccessSteadyState(b *testing.B) {
	_, _, w := steadyVM(64)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.StepOne()
	}
}

// benchAccessUncached measures the same steady state down the
// reference path with the walk cache released: two radix walks per
// access. The ratio to AccessSteadyState is the walk cache's speedup
// and is machine-independent enough to gate in CI.
func benchAccessUncached(b *testing.B) {
	_, vm, w := steadyVM(64)
	vm.SetWalkCacheEnabled(false)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.StepOne()
	}
}

// benchAccessAcrossMutation measures the steady state with one
// destructive guest page-table change between requests: a Remap4K of
// a base page in a region the workload never touches (VA 1<<40, whose
// walk-cache slot group no workload page shares). The walk cache drops
// only the changed region's translations, so the workload's requests
// keep hitting.
func benchAccessAcrossMutation(b *testing.B) {
	_, vm, w := steadyVM(64)
	const va = uint64(1) << 40
	var frames [2]uint64
	for i := range frames {
		f, err := vm.Guest.Buddy.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = f
	}
	if _, err := vm.Guest.Table.Map4K(va, frames[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := vm.Guest.Table.Remap4K(va, frames[(i+1)&1]); err != nil {
			b.Fatal(err)
		}
		w.StepOne()
	}
}

// hugeRefillVM returns a VM whose guest and EPT both fault huge, with
// one guest region mapped huge at both layers and warm in the walk
// cache, and the addresses of that region's 512 pages.
func hugeRefillVM() (*machine.VM, []uint64) {
	const guestPages = (64 << 20) >> mem.PageShift
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVM(guestPages, policy.HugeOnly{}, policy.HugeOnly{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(mem.HugeSize, 0)
	gvas := make([]uint64, mem.PagesPerHuge)
	for i := range gvas {
		gvas[i] = v.Start + uint64(i)*mem.PageSize
	}
	vm.AccessN(gvas)
	return vm, gvas
}

// hugeRefill splits the guest huge page over gvas and collapses it in
// place again, over a region the EPT maps huge, then accesses each of
// its pages once: the first access walks both tables and the walk
// cache serves the other 511 from one region entry.
func hugeRefill(vm *machine.VM, gvas []uint64) {
	demoteCollapse(vm, gvas[0])
	vm.AccessN(gvas)
}

// benchAccessHugeRefill measures one hugeRefill: the walk-cache refill
// after a promotion, which the steady-state cases never reach.
func benchAccessHugeRefill(b *testing.B) {
	vm, gvas := hugeRefillVM()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hugeRefill(vm, gvas)
	}
}

// oneLayerHugeVM returns a VM with two guest regions warm in the walk
// cache, one mapped huge in the guest over base pages in the EPT and
// one mapped base in the guest over a huge EPT page — the misaligned
// huge pages of §2.2 — and the addresses of their 1024 pages.
func oneLayerHugeVM() (*machine.VM, []uint64) {
	const guestPages = (64 << 20) >> mem.PageShift
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVM(guestPages, policy.HugeOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	gvas := make([]uint64, 2*mem.PagesPerHuge)
	for i := range gvas {
		gvas[i] = v.Start + uint64(i)*mem.PageSize
	}
	vm.AccessN(gvas)
	// The second region: split in the guest, its guest frames (one
	// huge block) promoted by migration in the EPT.
	second := v.Start + mem.HugeSize
	gfn, _, _ := vm.Guest.Table.Lookup(second)
	if err := vm.Guest.Demote(second); err != nil {
		panic(err)
	}
	if err := vm.EPT.PromoteMigrate(gfn*mem.PageSize, nil); err != nil {
		panic(err)
	}
	vm.AccessN(gvas)
	return vm, gvas
}

// benchAccessOneLayerHuge measures cached accesses to every page of
// the two oneLayerHugeVM regions: each access reads the base layer's
// PTE word through the cached leaf and the huge layer's frame from its
// region entry.
func benchAccessOneLayerHuge(b *testing.B) {
	vm, gvas := oneLayerHugeVM()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vm.AccessN(gvas)
	}
}

// microSink keeps the compiler from eliding the sweep results.
var microSink sim.MicroResult

// runMicroSweep executes one full Figure 2 quick-grid sweep — every
// page-size configuration at every -quick dataset size, end to end
// (machine build, populate, warm, measure), exactly the cells
// `paperbench -exp motivation -quick` runs. This is the unit the
// "sweeps/sec" headline is quoted in.
func runMicroSweep() {
	for _, mb := range [3]int{4, 32, 128} {
		for _, c := range [4][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			microSink = sim.RunMicro(sim.MicroConfig{
				GuestHuge: c[0], HostHuge: c[1], DatasetMB: mb, Seed: 1,
			})
		}
	}
}

// benchMicroSweep measures end-to-end Figure 2 sweeps per second:
// page draws batched into precomputed address streams and fed to
// AccessN, keeping the TLB probe and walk-cache loop in cache across a
// whole request batch. Its allocation count repeats exactly because
// every sweep starts from the same walk-cache arena pool state. Each
// cell takes the arena (region entries and access-batch buffers) the
// previous cell put back into machine's sync.Pool, but a pooled object put on one P's private slot is
// invisible to a Get from another, two collections between a Put and
// the next Get drop it, and the first Get after each collection
// allocates the pool's per-P array. So the case runs on one P with
// the pacer off, runs one untimed sweep first to fill the pool, and
// starts every timed sweep with one full collection. ns/op includes
// that collection (marking the live heap, sweeping the previous
// sweep's garbage) but not the pacer's collections during a sweep.
func benchMicroSweep(b *testing.B) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runMicroSweep()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runtime.GC()
		runMicroSweep()
	}
}

// faultPages is the VMA size of the first-touch cases: the fixture
// is rebuilt (off the clock) whenever its pages are all mapped.
const faultPages = 1 << 15

// faultVM builds a walk-cache-armed VM with base pages at both layers
// and one fresh faultPages VMA, returning the VM and the VMA's page
// addresses in ascending order.
func faultVM() (*machine.VM, []uint64) {
	return faultVMWith(policy.BaseOnly{}, policy.BaseOnly{})
}

// geminiFaultVM is faultVM with GEMINI's policies at both layers.
func geminiFaultVM() (*machine.VM, []uint64) {
	g, gp, hp := core.New(core.Config{})
	vm, addrs := faultVMWith(gp, hp)
	g.Attach(vm)
	return vm, addrs
}

// faultVMWith is faultVM with the given guest and host policies.
func faultVMWith(guest, host machine.Policy) (*machine.VM, []uint64) {
	m := machine.NewMachine(faultPages*4, machine.DefaultCosts())
	vm := m.AddVM(faultPages*2, guest, host, tlb.DefaultConfig())
	v := vm.Guest.Space.MMap(faultPages*mem.PageSize, 0)
	addrs := make([]uint64, faultPages)
	for i := range addrs {
		addrs[i] = v.Start + uint64(i)*mem.PageSize
	}
	return vm, addrs
}

// benchFullFault measures cold accesses one at a time: demand-faulting
// a fresh page at both layers, walking both tables, and filling the
// walk cache.
func benchFullFault(b *testing.B) {
	vm, addrs := faultVM()
	next := 0
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if next == faultPages {
			b.StopTimer()
			vm, addrs = faultVM()
			next = 0
			b.StartTimer()
		}
		vm.Access(addrs[next])
		next++
	}
}

// benchPopulateRun measures first-touch population in the shape the
// workload's growth issues it: one AccessN over an ascending run of
// fresh pages (populateRun of them), which the VM faults in as
// first-touch runs. One op is one page.
func benchPopulateRun(b *testing.B) { populateRuns(b, faultVM) }

// benchPopulateRunGemini is PopulateRun under GEMINI at both layers:
// the guest places the pages through EMA descriptors and huge
// bookings, the host through HostOffset anchors.
func benchPopulateRunGemini(b *testing.B) { populateRuns(b, geminiFaultVM) }

// populateRuns times ascending AccessN runs of fresh pages on the VMs
// that fixture builds, one op per page.
func populateRuns(b *testing.B, fixture func() (*machine.VM, []uint64)) {
	const populateRun = 512
	vm, addrs := fixture()
	next := 0
	b.ResetTimer()
	b.ReportAllocs()
	for done := 0; done < b.N; {
		if next == faultPages {
			b.StopTimer()
			vm, addrs = fixture()
			next = 0
			b.StartTimer()
		}
		k := min(populateRun, b.N-done, faultPages-next)
		vm.AccessN(addrs[next : next+k])
		next += k
		done += k
	}
}

// benchTLBFlushHugeRegion measures the 2 MiB region shootdown that
// promotion, demotion and compaction issue, on a TLB whose every way
// holds a live base entry. The flushed regions lie outside the filled
// working set, so the TLB stays full: this is the common compaction
// case, where every moved page after the first in a region finds its
// entries already gone.
func benchTLBFlushHugeRegion(b *testing.B) {
	t := tlb.New(tlb.DefaultConfig())
	for pn := uint64(0); pn < uint64(t.Entries())*4; pn++ {
		t.Insert(pn<<mem.PageShift, mem.Base)
	}
	const far = uint64(1) << 30
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.FlushHugeRegion(far + uint64(i&63)<<mem.HugeShift)
	}
}

// benchBuddyAllocFragmented measures one untargeted Alloc(0) plus its
// Free on fragmented memory: every page of a 256 MiB allocator was
// handed out singly, then four in five were freed in scrambled order,
// so thousands of small free blocks are scattered over the whole range
// and many order-0 blocks were merged away on the way there.
func benchBuddyAllocFragmented(b *testing.B) {
	const pages = 1 << 16
	a := buddy.New(pages)
	for i := 0; i < pages; i++ {
		if _, err := a.Alloc(0); err != nil {
			b.Fatal(err)
		}
	}
	for i := uint64(0); i < pages; i++ {
		if f := i * 40503 % pages; f%5 != 0 {
			a.Free(f, 0)
		}
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f, err := a.Alloc(0)
		if err != nil {
			b.Fatal(err)
		}
		a.Free(f, 0)
	}
}

// benchBuddyFreeMask measures one 2 MiB region's life under the
// fragmenter, one FreeMask call per step: the region is claimed whole,
// its unpinned frames are freed (about half, leaving it shattered into
// small blocks), then its pinned frames are freed and it merges back
// into an order-10 block with its free buddy.
func benchBuddyFreeMask(b *testing.B) {
	a := buddy.New(4 * mem.PagesPerHuge)
	// The fragmenter's pattern: even frames pinned, each choice flipped
	// for one frame in eight.
	var pinned, unpinned buddy.Mask
	x := uint64(0x9e3779b97f4a7c15)
	for w := range pinned {
		var flips uint64
		for i := range 64 {
			if x = x*6364136223846793005 + 1442695040888963407; x>>61 == 0 {
				flips |= 1 << i
			}
		}
		pinned[w] = 0x5555555555555555 ^ flips
		unpinned[w] = ^pinned[w]
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := a.AllocAt(mem.PagesPerHuge, mem.HugeOrder); err != nil {
			b.Fatal(err)
		}
		a.FreeMask(1, &unpinned)
		a.FreeMask(1, &pinned)
	}
}

// benchFragReleaseRegion measures the recovery step the fragmented
// runs take every few ticks: the fragmenter frees the pinned pages of
// one region (about half its frames) and the region merges back. The
// 256 MiB fixture is fragmented again, off the clock, whenever every
// region has been released.
func benchFragReleaseRegion(b *testing.B) {
	fragmented := func() *frag.Fragmenter {
		f := frag.New(buddy.New(1<<16), 1)
		f.FragmentTo(0.96, 0.55)
		return f
	}
	f := fragmented()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if f.HeldRegions() == 0 {
			b.StopTimer()
			f = fragmented()
			b.StartTimer()
		}
		f.ReleaseRegions(1)
	}
}

// benchFragmentTo measures the fragmentation pre-pass of a fragmented
// run's guest: a fresh fragmenter drives a 1 GiB allocator to FMFI 0.96
// keeping half of each region it shatters, the engine's guest
// fragmentation in the e2ebench coalesce cells. The fresh allocator is
// built off the clock.
func benchFragmentTo(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := buddy.New(1 << 18)
		b.StartTimer()
		frag.New(a, 1).FragmentTo(0.96, 0.5)
	}
}

// bareLayer builds a base-page layer over its own allocator of the
// given number of frames, with no TLB behind it.
func bareLayer(pages uint64) *machine.Layer {
	return machine.NewLayer("guest", buddy.New(pages), machine.NewAddressSpace(0),
		policy.BaseOnly{}, machine.DefaultCosts())
}

// benchCompactRegionAbort measures kcompactd's most common outcome
// under pressure: a region that cannot be freed. Every other frame of
// frame region 0 is mapped, the frames between are free, and the
// region's last frame is pinned, so the check walks the whole region
// before it gives up.
func benchCompactRegionAbort(b *testing.B) {
	L := bareLayer(4 * mem.PagesPerHuge)
	v := L.Space.MMap(mem.HugeSize, 0)
	for f := uint64(0); f < mem.PagesPerHuge-1; f += 2 {
		if err := L.Buddy.AllocAt(f, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := L.Table.Map4K(v.Start+f*mem.PageSize, f); err != nil {
			b.Fatal(err)
		}
	}
	if err := L.Buddy.AllocAt(mem.PagesPerHuge-1, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if L.CompactRegion(0) {
			b.Fatal("compacted a region with a pinned frame")
		}
	}
}

// benchSwapRegionRoundTrip measures one resident 2 MiB region going
// out to swap and coming back: SwapOutRegion demotes the huge mapping
// and evicts its 512 pages, then MapHugeEager maps the region huge
// again, which reads the 512 pages back through the readahead swap-in.
func benchSwapRegionRoundTrip(b *testing.B) {
	L := bareLayer(4 * mem.PagesPerHuge)
	v := L.Space.MMap(mem.HugeSize, 0)
	if err := L.MapHugeEager(v.Start); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if n := L.SwapOutRegion(v.Start>>mem.HugeShift, mem.PagesPerHuge); n != mem.PagesPerHuge {
			b.Fatalf("swapped out %d pages", n)
		}
		if err := L.MapHugeEager(v.Start); err != nil {
			b.Fatal(err)
		}
	}
}

// demoteCollapseVM returns a steady-state VM (warm TLB and walk cache)
// and the base of its first huge-mapped guest region.
func demoteCollapseVM() (*machine.VM, uint64) {
	_, vm, _ := steadyVM(64)
	var va uint64
	vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		va = m.VA
		return false
	})
	return vm, va
}

// demoteCollapse splits the guest huge page at va and collapses it in
// place again: the demote and re-collapse churn of reclaim under
// pressure and khugepaged. After the first cycle the split takes the
// leaf the collapse let go of, so a cycle allocates nothing
// (TestDemoteCollapseCycleZeroAllocs).
func demoteCollapse(vm *machine.VM, va uint64) {
	if err := vm.Guest.Demote(va); err != nil {
		panic(err)
	}
	if err := vm.Guest.PromoteInPlace(va); err != nil {
		panic(err)
	}
}

// benchDemoteCollapseCycle measures one demote and in-place re-collapse
// of a guest huge page, with its two TLB region flushes.
func benchDemoteCollapseCycle(b *testing.B) {
	vm, va := demoteCollapseVM()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		demoteCollapse(vm, va)
	}
}
