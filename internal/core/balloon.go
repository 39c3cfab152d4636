package core

// This file is the guest balloon driver for the memory-elasticity tier
// (DESIGN.md §10). Under host pressure the machine's swap tick asks
// each VM's balloon to Inflate: the driver allocates free guest frames
// (holding them so the guest cannot reuse them) and tells the host to
// drop their EPT backing — cooperative reclaim that frees host memory
// without swap I/O. When pressure subsides the swap tick Deflates the
// balloon and the frames return to the guest allocator; their backing
// refaults on demand. On Gemini guests the driver drains the huge
// bucket first: parked blocks exist only to preserve host-huge
// backing, which is exactly what pressure must take, so they are the
// cheapest donation.

import (
	"repro/internal/audit"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/trace"
)

// BalloonStats counts balloon traffic. InflatedPages and DeflatedPages
// are cumulative guest pages moved through the balloon; HostPagesFreed
// is the host backing actually dropped by inflation (less than
// InflatedPages when donated frames were never faulted); BucketBlocks
// counts huge-bucket blocks drained into the balloon.
type BalloonStats struct {
	InflatedPages  uint64
	DeflatedPages  uint64
	HostPagesFreed uint64
	BucketBlocks   uint64
}

// heldBlock is one guest-frame block the balloon holds: frame is the
// first guest frame, order the buddy order it was allocated at.
type heldBlock struct {
	frame uint64
	order int
}

// Balloon implements machine.BalloonDriver for one VM. It works for
// any guest policy — only the bucket-draining fast path is
// Gemini-specific. Install with vm.Balloon = NewBalloon(vm) after the
// VM is added to its machine.
type Balloon struct {
	vm       *machine.VM
	held     []heldBlock
	inflated uint64

	// Stats counts balloon traffic.
	Stats BalloonStats
}

// NewBalloon returns an empty balloon driver for vm and arms the guest
// layer's allocation-failure hook: a guest demand fault that finds the
// guest allocator empty deflates the balloon instead of panicking, the
// same escape valve a real driver's OOM-notifier/shrinker path
// provides. Without it a balloon inflated past the guest's head-room
// would turn host pressure into a guest OOM.
func NewBalloon(vm *machine.VM) *Balloon {
	b := &Balloon{vm: vm}
	vm.Guest.AllocFallback = func(need uint64) bool { return b.Deflate(need) > 0 }
	return b
}

// Inflated implements machine.BalloonDriver.
func (b *Balloon) Inflated() uint64 { return b.inflated }

// Inflate implements machine.BalloonDriver: allocate up to guestPages
// free guest pages — huge-bucket blocks first on Gemini guests, then
// whole order-9 blocks, then singles — and drop their host backing.
// Returns the host pages freed, which is what the caller's pressure
// arithmetic needs; the balloon may hold more guest pages than that
// when donated frames had no backing.
func (b *Balloon) Inflate(guestPages uint64) uint64 {
	var got, freed uint64
	// Huge-bucket blocks: already-allocated free guest blocks whose
	// host-huge backing the bucket was preserving for reuse. Pressure
	// overrides that bet (the paper's bucket force-releases under
	// pressure for the same reason).
	if p, ok := b.vm.Guest.Policy.(*GuestPolicy); ok {
		for got < guestPages {
			hi, ok := p.Bucket().Take(nil)
			if !ok {
				break
			}
			freed += b.hold(hi*mem.PagesPerHuge, mem.HugeOrder)
			got += mem.PagesPerHuge
			b.Stats.BucketBlocks++
		}
	}
	// Whole blocks while the request still wants one; singles after.
	for guestPages-got >= mem.PagesPerHuge {
		f, err := b.vm.Guest.Buddy.Alloc(mem.HugeOrder)
		if err != nil {
			break
		}
		freed += b.hold(f, mem.HugeOrder)
		got += mem.PagesPerHuge
	}
	for got < guestPages {
		f, err := b.vm.Guest.Buddy.Alloc(0)
		if err != nil {
			break
		}
		freed += b.hold(f, 0)
		got++
	}
	return freed
}

// hold records one donated guest block and drops its EPT backing,
// charging the per-page balloon handshake as background work. Returns
// the host pages freed.
func (b *Balloon) hold(frame uint64, order int) uint64 {
	pages := uint64(1) << order
	gpa := frame << mem.PageShift
	ept := b.vm.EPT
	freed := ept.DiscardBacking(gpa, gpa+pages*mem.PageSize)
	b.held = append(b.held, heldBlock{frame: frame, order: order})
	b.inflated += pages
	b.Stats.InflatedPages += pages
	b.Stats.HostPagesFreed += freed
	ept.Stats.BackgroundCycles += pages * ept.Costs.BalloonPage
	if ept.Trace != nil {
		ept.Trace.Event(trace.EvBalloonInflate, gpa, frame, order, pages, "pressure")
	}
	return freed
}

// Deflate implements machine.BalloonDriver: return held blocks to the
// guest allocator, newest first, until at least guestPages pages are
// released or the balloon is empty. Blocks are indivisible, so the
// release may overshoot by part of a block — harmless, the caller is
// hysteresis-driven. Host backing is not restored here; it refaults on
// demand as the guest reuses the frames.
func (b *Balloon) Deflate(guestPages uint64) uint64 {
	var ret uint64
	ept := b.vm.EPT
	for ret < guestPages && len(b.held) > 0 {
		h := b.held[len(b.held)-1]
		b.held = b.held[:len(b.held)-1]
		pages := uint64(1) << h.order
		b.vm.Guest.Buddy.Free(h.frame, h.order)
		b.inflated -= pages
		b.Stats.DeflatedPages += pages
		ret += pages
		ept.Stats.BackgroundCycles += pages * ept.Costs.BalloonPage
		if ept.Trace != nil {
			ept.Trace.Event(trace.EvBalloonDeflate, h.frame<<mem.PageShift, h.frame, h.order, pages, "relief")
		}
	}
	return ret
}

// mappedFrame returns the first guest frame of [lo, hi) that a guest
// mapping points at: one inside the frame region of a guest huge
// mapping (hugeRegions), or one with a reverse-map entry, probed only
// in regions whose reverse-map count is nonzero.
func (b *Balloon) mappedFrame(lo, hi uint64, hugeRegions map[uint64]bool) (uint64, bool) {
	tbl := b.vm.Guest.Table
	for r := lo / mem.PagesPerHuge; r*mem.PagesPerHuge < hi; r++ {
		first := max(lo, r*mem.PagesPerHuge)
		if hugeRegions[r] {
			return first, true
		}
		if tbl.RegionBasePages(r) == 0 {
			continue
		}
		for f := first; f < min(hi, (r+1)*mem.PagesPerHuge); f++ {
			if _, ok := tbl.ReverseLookup(f); ok {
				return f, true
			}
		}
	}
	return 0, false
}

// CheckInvariants recomputes the balloon's contract: every held guest
// frame is withdrawn from the guest allocator (the guest cannot hand
// it out while donated), no guest mapping points at a held frame, and
// the inflated gauge matches both the held list and the cumulative
// counters. Wired into the VM audit through the optional interface
// machine's VM.CheckInvariants probes for.
func (b *Balloon) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	// A guest frame is mapped when the guest reverse map holds an entry
	// for it (a base mapping) or it lies in the frame region of a guest
	// huge mapping; DESIGN.md §10 says why these probes find every
	// frame a walk of the whole table would. With no block held there
	// is nothing to probe.
	var hugeRegions map[uint64]bool
	if len(b.held) > 0 {
		hugeRegions = make(map[uint64]bool)
		b.vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
			hugeRegions[m.Frame/mem.PagesPerHuge] = true
			return true
		})
	}
	var sum uint64
	for _, h := range b.held {
		pages := uint64(1) << h.order
		sum += pages
		for f := h.frame; f < h.frame+pages; f++ {
			if b.vm.Guest.Buddy.FrameFree(f) {
				vs = append(vs, audit.Violationf("balloon", "balloon-held-free", f,
					"guest frame is held by the balloon but sits on the guest free lists"))
				break
			}
		}
		if f, ok := b.mappedFrame(h.frame, h.frame+pages, hugeRegions); ok {
			vs = append(vs, audit.Violationf("balloon", "balloon-held-mapped", f,
				"guest frame is held by the balloon but a guest mapping points at it"))
		}
	}
	if sum != b.inflated {
		vs = append(vs, audit.Violationf("balloon", "balloon-count", 0,
			"held blocks sum to %d pages but the inflated gauge says %d", sum, b.inflated))
	}
	if want := b.Stats.InflatedPages - b.Stats.DeflatedPages; b.inflated != want {
		vs = append(vs, audit.Violationf("balloon", "balloon-count", 0,
			"inflated gauge %d does not match cumulative in-out %d-%d",
			b.inflated, b.Stats.InflatedPages, b.Stats.DeflatedPages))
	}
	return vs
}
