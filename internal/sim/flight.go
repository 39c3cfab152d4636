package sim

// Flight-recorder gauge capture (EngineConfig.Trace), the one sampler
// the engine and the fleet share: AllocatorSample for an allocator
// scope and Guest.Sample for a VM. The host's Clock captures on the
// recorder's stride, so every engine phase contributes rows and sample
// ticks align with daemon quanta, the granularity at which coalescing
// state moves.

import (
	"repro/internal/buddy"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/trace"
)

// captureSamples snapshots the host allocator (scope -1) and every VM's
// gauges (scope = VM index).
func (e *Engine) captureSamples() {
	r := e.cfg.Trace
	r.AddSample(AllocatorSample(-1, e.m.HostBuddy))
	for i, ev := range e.vms {
		r.AddSample(ev.Sample(i))
	}
}

// AllocatorSample fills the buddy-allocator gauges for the scope tagged
// tag.
func AllocatorSample(tag int, b *buddy.Allocator) trace.Sample {
	s := trace.Sample{VM: tag, FreePages: b.FreePages()}
	for o := 0; o < trace.NumOrders; o++ {
		s.FMFI[o] = b.FMFI(o)
		s.FreeBlocks[o] = uint64(b.FreeBlockCount(o))
	}
	return s
}

// Sample snapshots the VM under scope tag: its guest allocator, both
// layers' mapping coverage, TLB state, movement counters, and — when
// the VM runs the Gemini guest policy — booking, bucket, and scanner
// gauges.
func (g *Guest) Sample(tag int) trace.Sample {
	vm := g.VM
	s := AllocatorSample(tag, vm.Guest.Buddy)

	s.MappedPages = vm.Guest.MappedPages()
	s.HugeMappedPages = vm.Guest.Table.Mapped2M() * mem.PagesPerHuge
	if s.MappedPages > 0 {
		s.HugeCoverage = float64(s.HugeMappedPages) / float64(s.MappedPages)
	}
	s.EPTMappedPages = vm.EPT.MappedPages()
	s.EPTHugeMappedPages = vm.EPT.Table.Mapped2M() * mem.PagesPerHuge

	ts := vm.TLB.Stats()
	s.TLBHits = ts.Hits
	s.TLBMisses = ts.Misses
	s.TLBMiss4K = ts.Misses4K
	s.TLBMiss2M = ts.Misses2M
	s.WalkCycles = ts.WalkCycles

	s.MigratedPages = vm.Guest.Stats.MigratedPages + vm.EPT.Stats.MigratedPages
	s.CompactedRegions = vm.Guest.Stats.CompactedRegions + vm.EPT.Stats.CompactedRegions

	s.SwappedPages = vm.EPT.SwappedPages()
	s.SwapOuts = vm.EPT.Stats.SwappedOutPages
	s.SwapIns = vm.EPT.Stats.SwappedInPages
	if vm.Balloon != nil {
		s.BalloonPages = vm.Balloon.Inflated()
	}

	if gp, ok := g.Policy.(*core.GuestPolicy); ok {
		s.Bookings = gp.BookingCount()
		s.BookingTimeout = int(gp.TimeoutCtl().Timeout())
		s.BookingsExpired = gp.Stats.BookingsExpired
		b := gp.Bucket()
		s.BucketLen = b.Len()
		s.BucketReused = b.Reused
		s.BucketTaken = b.Taken
	}
	if gem, ok := g.Coord.(*core.Gemini); ok {
		s.PromoterScans = gem.ScanCount
	}
	return s
}
