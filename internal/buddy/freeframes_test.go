package buddy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestFreeFramesDuplicatePanics: a frame listed twice panics, as the
// second Free(f, 0) of the per-frame path would, whether the two
// copies meet in one gathered mask, in two gatherings (more regions
// than slots come between them), or in a reserved region.
func TestFreeFramesDuplicatePanics(t *testing.T) {
	const regions = 12
	apart := []uint64{5}
	for r := uint64(1); r < regions; r++ {
		apart = append(apart, r*mem.PagesPerHuge)
	}
	apart = append(apart, 5)
	for _, c := range []struct {
		name   string
		frames []uint64
	}{
		{"one mask", []uint64{5, 6, 5}},
		{"two gatherings", apart},
		{"reserved region", []uint64{regions*mem.PagesPerHuge + 1, regions*mem.PagesPerHuge + 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := New((regions + 1) * mem.PagesPerHuge)
			for r := uint64(0); r < regions; r++ {
				if err := a.AllocAt(r*mem.PagesPerHuge, mem.HugeOrder); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Reserve(regions); err != nil {
				t.Fatal(err)
			}
			if err := a.AllocReservedPage(regions, regions*mem.PagesPerHuge+1); err != nil {
				t.Fatal(err)
			}
			if !panics(func() { a.FreeFrames(c.frames) }) {
				t.Fatalf("FreeFrames(%#x) did not panic", c.frames)
			}
		})
	}
}

// TestFreeFramesAllocatesNothing: the gathering masks live on the
// stack, even when a call spans more regions than there are slots.
func TestFreeFramesAllocatesNothing(t *testing.T) {
	const regions = 2 * gatherSlots
	a := New(regions * mem.PagesPerHuge)
	frames := make([]uint64, 0, regions*2)
	for r := uint64(0); r < regions; r++ {
		frames = append(frames, r*mem.PagesPerHuge+3, r*mem.PagesPerHuge+400)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, f := range frames {
			if err := a.AllocAt(f, 0); err != nil {
				t.Fatal(err)
			}
		}
		a.FreeFrames(frames)
	})
	if allocs != 0 {
		t.Errorf("FreeFrames allocates %v times per run, want 0", allocs)
	}
	if a.FreePages() != regions*mem.PagesPerHuge {
		t.Fatalf("%d free pages after the round trip, want %d", a.FreePages(), regions*mem.PagesPerHuge)
	}
}

// FuzzFreeFrames runs one random legal operation sequence (allocations,
// targeted allocations, reservations and their claims and finishes) on
// two allocators. Its FreeFrames steps free a random subset of the held
// frames, in a random order and across any number of regions, with
// FreeFrames on the first allocator and with Free(f, 0) per frame in
// list order on its twin; every step must leave both with the same
// books. The arena has more regions than FreeFrames has slots and ends
// in a partial region, and reservations take the per-frame path, so
// every path is exercised. Its duplicate steps list one held frame
// twice: both allocators must panic, and the sequence ends there.
func FuzzFreeFrames(f *testing.F) {
	f.Add([]byte{0, 9, 0, 0, 0, 1, 6, 0})
	f.Add([]byte{0, 9, 0, 9, 1, 40, 6, 16, 6, 129, 6, 1})
	f.Add([]byte{3, 4, 4, 9, 4, 77, 6, 0, 5, 4, 6, 32})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 6, 0, 6, 48})
	f.Add([]byte{0, 0, 0, 1, 2, 3, 3, 2, 4, 2, 7, 0})
	f.Add([]byte{0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 0, 10, 7, 9})

	const regions = 12
	const totalPages = regions*mem.PagesPerHuge + 300

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got, want := New(totalPages), New(totalPages)
		var held [totalPages]bool // frames handed out and not freed
		hold := func(start uint64, order int) {
			for f := start; f < start+1<<order; f++ {
				held[f] = true
			}
		}
		var reserved []uint64
		both := func(do func(a *Allocator) error) error {
			e1, e2 := do(got), do(want)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("twins disagree: %v vs %v", e1, e2)
			}
			return e1
		}
		x := uint64(0x9e3779b97f4a7c15) // pick and shuffle stream
		rnd := func() uint64 {
			x = x*6364136223846793005 + 1442695040888963407
			return x ^ x>>29
		}
		// pick lists a random subset of the held frames in random order.
		pick := func(arg uint64) []uint64 {
			var frames []uint64
			for f := range uint64(totalPages) {
				if held[f] && (arg>>4%4 == 0 || rnd()%(arg%4+2) == 0) {
					frames = append(frames, f)
				}
			}
			for i := len(frames) - 1; i > 0; i-- {
				j := rnd() % uint64(i+1)
				frames[i], frames[j] = frames[j], frames[i]
			}
			return frames
		}
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%8, uint64(data[step+1])
			switch op {
			case 0: // Alloc
				order := int(arg) % (MaxOrder + 1)
				s1, e1 := got.Alloc(order)
				s2, e2 := want.Alloc(order)
				if (e1 == nil) != (e2 == nil) || s1 != s2 {
					t.Fatalf("step %d: Alloc(%d) = %#x, %v; twin %#x, %v", step, order, s1, e1, s2, e2)
				}
				if e1 == nil {
					hold(s1, order)
				}
			case 1: // AllocAt
				order := int(arg) % 4
				frame := (arg * 37) % totalPages &^ (1<<order - 1)
				if both(func(a *Allocator) error { return a.AllocAt(frame, order) }) == nil {
					hold(frame, order)
				}
			case 2: // AllocAt in the partial last region
				frame := regions*mem.PagesPerHuge + arg%300
				if both(func(a *Allocator) error { return a.AllocAt(frame, 0) }) == nil {
					held[frame] = true
				}
			case 3: // Reserve
				hi := arg % regions
				if both(func(a *Allocator) error { _, err := a.Reserve(hi); return err }) == nil {
					reserved = append(reserved, hi)
				}
			case 4: // AllocReservedPage
				if len(reserved) == 0 {
					continue
				}
				hi := reserved[int(arg)%len(reserved)]
				frame := hi*mem.PagesPerHuge + arg*5%mem.PagesPerHuge
				if both(func(a *Allocator) error { return a.AllocReservedPage(hi, frame) }) == nil {
					held[frame] = true
				}
			case 5: // FinishReservation
				if len(reserved) == 0 {
					continue
				}
				hi := reserved[int(arg)%len(reserved)]
				both(func(a *Allocator) error { _, err := a.FinishReservation(hi); return err })
				reserved = slices.DeleteFunc(reserved, func(r uint64) bool { return r == hi })
			case 6: // FreeFrames a random subset of the held frames
				frames := pick(arg)
				got.FreeFrames(frames)
				for _, f := range frames {
					want.Free(f, 0)
					held[f] = false
				}
			case 7: // A held frame listed twice: both must panic
				frames := pick(arg)
				if len(frames) == 0 {
					continue
				}
				frames = append(frames, frames[rnd()%uint64(len(frames))])
				if !panics(func() { got.FreeFrames(frames) }) {
					t.Fatalf("step %d: FreeFrames with a frame listed twice did not panic", step)
				}
				if !panics(func() {
					for _, f := range frames {
						want.Free(f, 0)
					}
				}) {
					t.Fatalf("step %d: per-frame Free of a frame listed twice did not panic", step)
				}
				return
			}
			sameBooks(t, fmt.Sprintf("step %d (op %d)", step, op), got, want)
		}
	})
}
