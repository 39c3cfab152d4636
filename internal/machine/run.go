package machine

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/tlb"
)

// This file is the first-touch run fault (DESIGN.md §7.6, "First-touch
// runs"). Population touches fresh pages in ascending order, and the
// policies' answers for a run of them inside one 2 MiB region repeat
// themselves: a base page, placed by the allocator or at a fixed offset
// from one anchor. So a walk-cache miss on an unmapped page hands the
// ascending run that starts there to one fault per layer: one policy
// answer, one buddy carve and one leaf walk for the run. The simulated
// work is exactly that of the per-page path, access by access.

// RunPolicy is implemented by policies that can answer a run of base-page
// faults at once. OnFaultRun is asked about the n ascending pages from
// va, all unmapped and inside va's 2 MiB region and VMA v. It answers
// for the longest prefix on which OnFault, called page by page with each
// page mapped before the next one is asked, would answer a plain base
// page: Kind Base, no ExtraCycles, and either every frame placed by the
// policy or none. It returns the prefix length k (0 declines) and
// whether it placed the frames. Placed frames are frame..frame+k-1, in
// one 2 MiB region, and the policy has claimed them: the answer has
// exactly the side effects of those OnFault calls. An unplaced answer
// has none, so the layer may map any prefix of it with frames of its
// own. A decline may have only side effects that OnFault on the first
// page repeats.
type RunPolicy interface {
	OnFaultRun(L *Layer, va uint64, n int, v *VMA) (k int, frame uint64, placed bool)
}

// EnsureMappedRun faults in base pages for a run: of the n ascending
// pages from va, all inside va's 2 MiB region and VMA v, it maps the
// longest unmapped prefix the layer's RunPolicy answers, and returns
// the fault cycles, the prefix length k (0 when it declines) and the
// pages' AccessRefs. Page i's output frame goes to frames[i]. It leaves
// exactly the state, and charges exactly the cycles, that EnsureMapped
// page by page would, because it runs only where that path does
// nothing but a plain base fault: the policy is a RunPolicy, no trace
// handle is attached, no page is swapped out or deduplicated (a refault
// pays more), and the allocator holds a free frame for every page, so
// no allocation can fail and AllocFallback cannot run.
func (L *Layer) EnsureMappedRun(va uint64, n int, v *VMA, frames []uint64) (cycles uint64, k int, refs pagetable.RunRefs) {
	rp, ok := L.Policy.(RunPolicy)
	if !ok || L.Trace != nil {
		return 0, 0, refs
	}
	n = int(min(uint64(L.Table.UnmappedRun(va, n)), L.Buddy.FreePages()))
	if n = L.plainRun(va, n); n == 0 {
		return 0, 0, refs
	}
	k, frame, placed := rp.OnFaultRun(L, va, n, v)
	if k == 0 {
		return 0, 0, refs
	}
	if placed {
		for i := range frames[:k] {
			frames[i] = frame + uint64(i)
		}
	} else {
		// AllocRun keeps the frames in one 2 MiB region, as placed ones
		// are: the VM bounds a run's EPT faults by that (accessRun). It
		// cannot run out: the allocator holds a frame for every page.
		k = L.Buddy.AllocRun(k, frames)
	}
	refs, err := L.Table.MapRun(va, frames[:k])
	if err != nil {
		panic(fmt.Sprintf("machine: MapRun(%#x, %d): %v", va, k, err))
	}
	L.Stats.Faults += uint64(k)
	return uint64(k) * L.Costs.FaultBase, k, refs
}

// plainRun returns how many of the n pages from va come before the
// first one that is swapped out or deduplicated, whose refault costs
// more than a base fault.
func (L *Layer) plainRun(va uint64, n int) int {
	vpn := va >> mem.PageShift
	if len(L.deduped) != 0 {
		for i := range n {
			if L.deduped[vpn+uint64(i)] {
				return i
			}
		}
	}
	if bm, ok := L.swapped[va>>mem.HugeShift]; ok {
		p := vpn & (mem.PagesPerHuge - 1)
		for i := range uint64(n) {
			if bm[(p+i)/64]&(1<<((p+i)%64)) != 0 {
				return int(i)
			}
		}
	}
	return n
}

// runPace spaces out the VM's tries after declines: a declined run
// costs its checks and buys nothing. skip counts the misses left before
// the next try. A decline sets it to backoff and doubles backoff (up to
// runBackoffMax); a served run clears backoff. Misses the policy keeps
// declining — GEMINI without a descriptor to claim through, a policy
// that answers no runs — then mostly go straight to the per-page path.
// Any page may take the per-page path, so pacing changes wall time
// only.
type runPace struct {
	skip, backoff int
}

// runBackoffMax bounds the misses skipped after a decline.
const runBackoffMax = 64

// The run path stages a region's guest frames in the first half of
// the access batch and the EPT's frames in the second.
var _ [accessBatchChunk - 2*mem.PagesPerHuge]struct{}

// accessRun serves the accesses at the front of gvas, which start at a
// walk-cache miss on a radix VM and go on to the next page, as one
// first-touch run, and returns
// their cycles and count; 0 means it declined and the per-page path
// takes gvas[0]. The run is the ascending pages gvas[0], gvas[0]+1 page,
// ... inside one guest 2 MiB region and VMA. The guest layer faults the
// run in first; then backRun backs its guest frames in the EPT in order
// (through EPT runs where the frames are consecutive), doing each
// access's bookkeeping as its page is backed, and charges the accesses
// to the TLB in order.
//
// Only the order of the faults differs from the per-page path, and it
// commutes: guest and EPT faults touch disjoint state, base faults add
// no stall and no shootdown, and the one cross-layer read on the fault
// path (GEMINI's GuestHugeAt) sees a scan snapshot no fault changes. The
// exception would be direct reclaim, which reaches into guest memory;
// so the EPT allocator must hold enough free frames that no EPT
// allocation in the run can fail. A run's guest frames lie in one 2 MiB
// region, each EPT fault takes one base frame or one huge block, and a
// huge block maps the whole region, so n frames suffice, plus 511 when
// a free huge block exists (TestFirstTouchRunMatchesPerPage).
func (vm *VM) accessRun(gvas []uint64) (uint64, int) {
	G, E := vm.Guest, vm.EPT
	gva := gvas[0]
	page := gva >> mem.PageShift
	if G.Trace != nil || E.Trace != nil {
		return 0, 0
	}
	if _, _, mapped := G.Table.Lookup(gva); mapped {
		return 0, 0
	}
	pace := &vm.pace
	if pace.skip > 0 {
		pace.skip--
		return 0, 0
	}
	v := G.Space.Find(gva)
	if v == nil {
		return 0, 0
	}
	n := min(len(gvas), mem.PagesPerHuge-int(page%mem.PagesPerHuge), int(v.End()>>mem.PageShift-page))
	for i := 2; i < n; i++ {
		if gvas[i]>>mem.PageShift != page+uint64(i) {
			n = i
			break
		}
	}
	need := uint64(n)
	if E.Buddy.FreeHugeCandidates() > 0 {
		need += mem.PagesPerHuge - 1
	}
	if E.Buddy.FreePages() >= need {
		c, k, gRefs := G.EnsureMappedRun(gva, n, v, vm.bat.gpa[:n])
		if k > 0 {
			pace.backoff = 0
			return c + vm.backRun(gvas[:k], gRefs), k
		}
	}
	pace.skip = pace.backoff
	pace.backoff = min(2*pace.backoff+1, runBackoffMax)
	return 0, 0
}

// backRun finishes a run whose guest faults are done: the guest frames
// wait in the first len(gvas) entries of the access batch and their
// AccessRefs in gRefs. Page by page, it backs the frame in the EPT
// (through an EPT run where the next frames are consecutive), stages
// the access for the TLB batch in the frame's place and fills the
// access's walk-cache entry; then it charges the staged accesses to the
// TLB in order. It returns the cycles. Faults read neither heat nor
// accessed bits nor the walk cache, and the run's faults change no
// translation the cache holds, so each page's bookkeeping may follow
// its own EPT fault instead of the last one.
func (vm *VM) backRun(gvas []uint64, gRefs pagetable.RunRefs) (cycles uint64) {
	G, E := vm.Guest, vm.EPT
	bat := &vm.bat
	k := len(gvas)
	gVer := G.Table.Version()
	vm.wcRevalidate() // a no-op: AccessN left the stamps current
	// finish does page i's bookkeeping once its EPT side is known.
	finish := func(i int, eRef pagetable.AccessRef, hKind mem.PageSizeKind) {
		gva, gfn := gvas[i], bat.gpa[i]
		gpa := gfn<<mem.PageShift + gva&(mem.PageSize-1)
		gRef := gRefs.At(i)
		G.heatBump(gva >> mem.HugeShift)
		E.heatBump(gpa >> mem.HugeShift)
		gRef.Mark()
		eRef.Mark()
		si, meta := vm.TLB.SetIndexOf(gva, mem.Base), tlb.PackKinds(mem.Base, mem.Base, hKind)
		bat.gpa[i], bat.si[i], bat.meta[i] = gpa, si, meta
		cycles += G.TakeStallQuantum() + E.TakeStallQuantum()
		vm.wcStore(gva, gfn, gRef, eRef, si, meta)
	}
	var ev *VMA
	for i := 0; i < k; {
		gfn := bat.gpa[i]
		gpa := gfn<<mem.PageShift + gvas[i]&(mem.PageSize-1)
		if _, kind, ref, ok := E.Table.LookupRef(gpa); ok {
			finish(i, ref, kind)
			i++
			continue
		}
		if ev == nil || gpa < ev.Start || gpa >= ev.End() {
			ev = E.Space.Find(gpa)
		}
		// The EPT run: the following guest frames that are consecutive
		// and in gpa's 2 MiB region.
		m := 1
		for i+m < k && bat.gpa[i+m] == gfn+uint64(m) && (gfn+uint64(m))%mem.PagesPerHuge != 0 {
			m++
		}
		if ev != nil {
			m = min(m, int((ev.End()-gpa)>>mem.PageShift))
			c, got, hRefs := E.EnsureMappedRun(gpa, m, ev, bat.gpa[mem.PagesPerHuge:][:m])
			cycles += c
			for j := range got {
				finish(i+j, hRefs.At(j), mem.Base)
			}
			if i += got; got > 0 {
				continue
			}
		}
		c, _, kind, ref := E.EnsureMapped(gpa)
		cycles += c
		finish(i, ref, kind)
		i++
	}
	if G.Table.Version() != gVer {
		panic("machine: an EPT fault of a first-touch run changed the guest table")
	}
	return cycles + vm.TLB.AccessNestedBatch(gvas, bat.gpa[:k], bat.si[:k], bat.meta[:k])
}
