package core

// Tests for the balloon driver (balloon.go, DESIGN.md §10): inflation
// order (bucket blocks before free guest memory), host-backing
// accounting, the guest-OOM deflate escape valve, and mutation
// self-tests for the balloon audit.

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
)

// balloonVM wires a Gemini VM with its balloon installed and one
// fully-touched 4-region VMA, ticked until the background machinery
// settles.
func balloonVM(t *testing.T, cfg Config) (*machine.Machine, *machine.VM, *Balloon, *GuestPolicy) {
	t.Helper()
	m, vm, _, gp, _ := newGeminiVM(cfg)
	b := NewBalloon(vm)
	vm.Balloon = b
	v := vm.Guest.Space.MMap(4*mem.HugeSize, 0)
	run(m, vm, v, 4, 2)
	return m, vm, b, gp
}

func TestBalloonInflateFreesHostBacking(t *testing.T) {
	m, vm, b, _ := balloonVM(t, Config{})
	// Unmap the touched VMA: its guest frames return to the buddy but
	// their EPT backing persists (bloat). Inflating the whole free pool
	// must therefore re-donate backed frames and free host memory.
	vm.Guest.UnmapVMA(vm.Guest.Space.VMAs()[0])
	free := m.HostBuddy.FreePages()
	freed := b.Inflate(vm.Guest.Buddy.FreePages())
	if b.Inflated() == 0 {
		t.Fatal("balloon holds nothing after Inflate")
	}
	if freed == 0 {
		t.Fatal("Inflate freed no host backing")
	}
	if got := m.HostBuddy.FreePages(); got != free+freed {
		t.Fatalf("host free pages %d, want %d (the reported freed count)", got, free+freed)
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after inflate: %v", vs)
	}
}

func TestBalloonDrainsBucketFirst(t *testing.T) {
	_, vm, b, gp := balloonVM(t, Config{BucketTTL: 1 << 20})
	// Park a freshly-freed huge block in the bucket: unmap the last
	// region the way the Gemini release path would, then hand its block
	// to the bucket directly.
	frame, err := vm.Guest.Buddy.Alloc(mem.HugeOrder)
	if err != nil {
		t.Fatalf("setup: no free huge block to park: %v", err)
	}
	gp.Bucket().Put(frame/mem.PagesPerHuge, 0, 1<<20)
	before := b.Stats.BucketBlocks
	b.Inflate(mem.PagesPerHuge)
	if b.Stats.BucketBlocks != before+1 {
		t.Fatalf("BucketBlocks = %d, want %d: inflation skipped the parked block",
			b.Stats.BucketBlocks, before+1)
	}
	if gp.Bucket().Len() != 0 {
		t.Fatal("bucket still holds the parked block")
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after bucket drain: %v", vs)
	}
}

func TestBalloonDeflateReturnsMemory(t *testing.T) {
	_, vm, b, _ := balloonVM(t, Config{})
	b.Inflate(2 * mem.PagesPerHuge)
	held := b.Inflated()
	if held == 0 {
		t.Fatal("setup: nothing inflated")
	}
	guestFree := vm.Guest.Buddy.FreePages()
	ret := b.Deflate(held)
	if ret != held {
		t.Fatalf("Deflate returned %d of %d held pages", ret, held)
	}
	if b.Inflated() != 0 {
		t.Fatalf("balloon still holds %d pages", b.Inflated())
	}
	if got := vm.Guest.Buddy.FreePages(); got != guestFree+ret {
		t.Fatalf("guest free pages %d, want %d", got, guestFree+ret)
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after deflate: %v", vs)
	}
}

func TestGuestFaultDeflatesBalloon(t *testing.T) {
	_, vm, b, _ := balloonVM(t, Config{})
	// Take every free guest page into the balloon, then demand a new
	// mapping: without the AllocFallback escape valve this panics with
	// a guest OOM; with it the fault deflates what it needs.
	b.Inflate(vm.Guest.Buddy.FreePages())
	if vm.Guest.Buddy.FreePages() != 0 {
		t.Fatalf("setup: %d guest pages still free", vm.Guest.Buddy.FreePages())
	}
	held := b.Inflated()
	v := vm.Guest.Space.MMap(mem.PageSize, 0)
	vm.Access(v.Start)
	if b.Inflated() >= held {
		t.Fatal("demand fault did not deflate the balloon")
	}
	if vs := vm.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("audit after fault-driven deflate: %v", vs)
	}
}

func TestBalloonAuditCatchesHeldFrameFreed(t *testing.T) {
	_, vm, b, _ := balloonVM(t, Config{})
	b.Inflate(mem.PagesPerHuge)
	h := b.held[len(b.held)-1]
	// Corrupt: return a held block to the guest allocator behind the
	// balloon's back.
	vm.Guest.Buddy.Free(h.frame, h.order)
	vs := b.CheckInvariants()
	found := false
	for _, v := range vs {
		if v.Invariant == "balloon-held-free" {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit missed the freed held block; got: %v", vs)
	}
}

// TestBalloonAuditCatchesHeldFrameMapped: a guest mapping that points
// at a held frame, through a base page or a huge page, breaks the
// balloon's contract.
func TestBalloonAuditCatchesHeldFrameMapped(t *testing.T) {
	for _, huge := range []bool{false, true} {
		_, vm, b, _ := balloonVM(t, Config{})
		if vs := b.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("audit of an empty balloon: %v", vs)
		}
		b.Inflate(mem.PagesPerHuge)
		h := b.held[len(b.held)-1]
		if vs := b.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("audit after Inflate: %v", vs)
		}
		// Corrupt: map a page of an unused guest region onto the last
		// held frame, as a base page or a huge page over its region.
		const va = 1 << 40
		frame := h.frame + 1<<h.order - 1
		var err error
		if huge {
			err = vm.Guest.Table.Map2M(va, frame&^(mem.PagesPerHuge-1))
		} else {
			_, err = vm.Guest.Table.Map4K(va, frame)
		}
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, v := range b.CheckInvariants() {
			found = found || v.Invariant == "balloon-held-mapped"
		}
		if !found {
			t.Fatalf("audit missed the held frame %#x mapped (huge %v)", frame, huge)
		}
	}
}

func TestBalloonAuditCatchesInflatedDrift(t *testing.T) {
	_, _, b, _ := balloonVM(t, Config{})
	b.Inflate(mem.PagesPerHuge)
	b.inflated++ // gauge no longer matches the held list or counters
	vs := b.CheckInvariants()
	found := false
	for _, v := range vs {
		if v.Invariant == "balloon-count" {
			found = true
		}
	}
	if !found {
		t.Fatalf("audit missed the inflated-gauge drift; got: %v", vs)
	}
}
