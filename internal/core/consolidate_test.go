package core

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/machine"
	"repro/internal/mem"
)

// buildType2 manufactures a textbook type-2 situation: a host huge
// page over GPA region R while the guest maps R with scattered base
// pages belonging mostly to one virtual region. Returns the region's
// huge index and the dominant GVA base.
func buildType2(t *testing.T, vm *machine.VM, g *Gemini) (uint64, uint64) {
	t.Helper()
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch the dominant virtual region sparsely: its pages land in
	// low guest frames (several inside one GPA region).
	dom := v.Start
	for i := uint64(0); i < mem.PagesPerHuge; i += 2 {
		vm.Access(dom + i*mem.PageSize)
	}
	gfn, kind, ok := vm.Guest.Table.Lookup(dom)
	if !ok || kind != mem.Base {
		t.Fatalf("setup: dominant region state %v %v", kind, ok)
	}
	hi := gfn / mem.PagesPerHuge
	// Back that GPA region with a host huge page by force.
	if err := vm.EPT.PromoteMigrate(hi*mem.HugeSize, nil); err != nil {
		t.Fatalf("setup: EPT promotion: %v", err)
	}
	g.Scan(12345)
	return hi, dom
}

func TestConsolidateDirect(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{DisableBucket: true, DisableBooking: true})
	hi, dom := buildType2(t, vm, g)
	_, type2 := g.MisalignedHostRegions()
	found := false
	for _, x := range type2 {
		if x == hi {
			found = true
		}
	}
	if !found {
		t.Fatalf("setup: region %d not classified type-2 (%v)", hi, type2)
	}
	free := vm.Guest.Buddy.FreePages()
	if !gp.consolidate(vm.Guest, hi) {
		t.Fatalf("consolidate failed; dominant=%#x stats=%+v", dom, gp.Stats)
	}
	// The dominant region is now huge and mapped exactly onto R.
	f, kind, ok := vm.Guest.Table.Lookup(dom)
	if !ok || kind != mem.Huge || f/mem.PagesPerHuge != hi {
		t.Fatalf("post-consolidate mapping: frame=%d kind=%v ok=%v", f, kind, ok)
	}
	a := vm.Alignment()
	if a.Aligned == 0 {
		t.Fatalf("no aligned pair after consolidation: %+v", a)
	}
	// Conservation: dominant region had 256 pages; it now owns 512
	// (the huge block). Free pages shrink by exactly 256.
	if got := vm.Guest.Buddy.FreePages(); got != free-256 {
		t.Fatalf("free pages = %d, want %d", got, free-256)
	}
	if vs := vm.Guest.Buddy.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestConsolidateSkipsWeakDominant(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{DisableBucket: true, DisableBooking: true})
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	// Touch very few pages: dominant count below the worthwhile
	// threshold.
	for i := uint64(0); i < 32; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	gfn, _, _ := vm.Guest.Table.Lookup(v.Start)
	hi := gfn / mem.PagesPerHuge
	if err := vm.EPT.PromoteMigrate(hi*mem.HugeSize, nil); err != nil {
		t.Fatal(err)
	}
	g.Scan(777)
	if gp.consolidate(vm.Guest, hi) {
		t.Fatal("consolidated a region with a weak dominant")
	}
}

func TestConsolidateSkipsBooked(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{DisableBucket: true})
	hi, _ := buildType2(t, vm, g)
	// Manually register a booking on the region: consolidate must
	// leave it alone. (The booking cannot reserve the region — it is
	// occupied — so fabricate the record only.)
	gp.addBooking(&booking{hugeIdx: hi})
	if gp.consolidate(vm.Guest, hi) {
		t.Fatal("consolidated a booked region")
	}
	gp.dropBooking(gp.bookings[hi])
}

func TestConsolidateSkipsAlreadyHugeDominant(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{DisableBucket: true, DisableBooking: true})
	hi, dom := buildType2(t, vm, g)
	// Promote the dominant region by migration elsewhere first.
	if err := vm.Guest.PromoteMigrate(dom, nil); err != nil {
		t.Fatal(err)
	}
	if gp.consolidate(vm.Guest, hi) {
		t.Fatal("consolidated despite huge dominant")
	}
}

func TestConsolidateAbortsOnForeignFrames(t *testing.T) {
	_, vm, g, gp, _ := newGeminiVM(Config{DisableBucket: true, DisableBooking: true})
	hi, _ := buildType2(t, vm, g)
	// Occupy one frame of R with an allocation the table knows nothing
	// about (an unmovable page): consolidation must roll back.
	var foreign uint64
	var got bool
	start := hi * mem.PagesPerHuge
	for f := start; f < start+mem.PagesPerHuge; f++ {
		if vm.Guest.Buddy.AllocAt(f, 0) == nil {
			foreign, got = f, true
			break
		}
	}
	if !got {
		t.Skip("region fully occupied; cannot plant foreign frame")
	}
	free := vm.Guest.Buddy.FreePages()
	if gp.consolidate(vm.Guest, hi) {
		t.Fatal("consolidated around an unmovable frame")
	}
	// Rollback restored everything except our foreign frame.
	if gotFree := vm.Guest.Buddy.FreePages(); gotFree != free {
		t.Fatalf("rollback leaked: free %d -> %d", free, gotFree)
	}
	vm.Guest.Buddy.Free(foreign, 0)
	if vs := vm.Guest.Buddy.CheckInvariants(); len(vs) != 0 {
		t.Fatal(audit.Report(vs))
	}
}

func TestAccessorSmoke(t *testing.T) {
	g, gp, hp := New(Config{})
	if g.VM() != nil {
		t.Fatal("VM before Attach")
	}
	if gp.Name() != "gemini-guest" || hp.Name() != "gemini-host" {
		t.Fatal("names")
	}
	if gp.TimeoutCtl() == nil {
		t.Fatal("nil controller")
	}
	if g.HostHugeAt(0) || g.GuestHugeAt(0) {
		t.Fatal("unattached coordinator reports huge pages")
	}
}
