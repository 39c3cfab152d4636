package buddy

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// freeEach is FreeMask's reference: Free(f, 0) on every set frame of
// the region, in ascending order.
func freeEach(a *Allocator, huge uint64, mask *Mask) {
	base := huge * mem.PagesPerHuge
	for w, word := range mask {
		for ; word != 0; word &= word - 1 {
			a.Free(base+uint64(w*64+bits.TrailingZeros64(word)), 0)
		}
	}
}

// sameBooks fails the test unless both allocators pass their audit and
// agree on every observable of the free books.
func sameBooks(t *testing.T, what string, got, want *Allocator) {
	t.Helper()
	for _, a := range []*Allocator{got, want} {
		if vs := a.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("%s: %s", what, audit.Report(vs))
		}
	}
	checkRuns(t, what, got)
	if g, w := got.FreeRegionsAtLeast(1, nil), want.FreeRegionsAtLeast(1, nil); !slices.Equal(g, w) {
		t.Fatalf("%s: free runs %v, per-page Free gives %v", what, g, w)
	}
	for o := 0; o <= MaxOrder; o++ {
		if g, w := got.FreeBlockCount(o), want.FreeBlockCount(o); g != w {
			t.Fatalf("%s: FreeBlockCount(%d) = %d, per-page Free gives %d", what, o, g, w)
		}
	}
	if g, w := got.FreePages(), want.FreePages(); g != w {
		t.Fatalf("%s: FreePages = %d, per-page Free gives %d", what, g, w)
	}
	if g, w := got.FMFI(mem.HugeOrder), want.FMFI(mem.HugeOrder); g != w {
		t.Fatalf("%s: FMFI = %v, per-page Free gives %v", what, g, w)
	}
}

// fullMask has every frame of a region set.
var fullMask = Mask{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0),
	^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}

func TestFreeMaskMatchesPerPageFree(t *testing.T) {
	type twin = func(a *Allocator) // applied to both allocators
	cases := []struct {
		name  string
		pages uint64
		setup twin
		huge  uint64
		mask  Mask
		after twin // run on both once the masks are freed
	}{
		{
			name:  "empty mask",
			pages: 4 * mem.PagesPerHuge,
			setup: func(a *Allocator) { a.AllocAt(mem.PagesPerHuge, mem.HugeOrder) },
			huge:  1,
		},
		{
			name:  "full region merges into its order-10 buddy",
			pages: 4 * mem.PagesPerHuge,
			setup: func(a *Allocator) { a.AllocAt(mem.PagesPerHuge, mem.HugeOrder) },
			huge:  1,
			mask:  fullMask,
		},
		{
			name:  "region holding free blocks",
			pages: 4 * mem.PagesPerHuge,
			setup: func(a *Allocator) {
				a.AllocAt(2*mem.PagesPerHuge, mem.HugeOrder)
				base := uint64(2 * mem.PagesPerHuge)
				a.Free(base+64, 6)
				a.Free(base+8, 3)
				a.Free(base+3, 0)
				a.Free(base+300, 2)
				a.Free(base+511, 0)
			},
			huge: 2,
			// Frames 0-2 and 4-7 (merging with 3 and with the
			// order-3 block at 8), 128-255 (an order-7 pair for
			// the order-6 block at 64), and scattered singles.
			mask: Mask{0xf7, 0, 0xffffffffffffffff, 0xffffffffffffffff, 0x0101, 0, 0x8000, 0x4000000000000000},
		},
		{
			name:  "tail region past the last full region",
			pages: 2*mem.PagesPerHuge + 100,
			setup: func(a *Allocator) {
				for f := uint64(2 * mem.PagesPerHuge); f < 2*mem.PagesPerHuge+100; f++ {
					a.AllocAt(f, 0)
				}
			},
			huge: 2,
			mask: Mask{0xffffffff0000ffff, 0xf0},
		},
		{
			name:  "reserved region",
			pages: 4 * mem.PagesPerHuge,
			setup: func(a *Allocator) {
				a.Reserve(3)
				for _, i := range []uint64{0, 1, 2, 70, 511} {
					a.AllocReservedPage(3, 3*mem.PagesPerHuge+i)
				}
			},
			huge:  3,
			mask:  Mask{0b101, 0x40},
			after: func(a *Allocator) { a.FinishReservation(3) },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := New(c.pages), New(c.pages)
			c.setup(got)
			c.setup(want)
			sameBooks(t, "setup", got, want)
			got.FreeMask(c.huge, &c.mask)
			freeEach(want, c.huge, &c.mask)
			sameBooks(t, "FreeMask", got, want)
			if c.after != nil {
				c.after(got)
				c.after(want)
				sameBooks(t, "after", got, want)
			}
		})
	}
}

// TestFreeMaskDoubleFreePanics: a mask frame inside an existing larger
// free block is a double free. Free only catches a frame that starts a
// free block; FreeMask checks every frame.
func TestFreeMaskDoubleFreePanics(t *testing.T) {
	a := New(4 * mem.PagesPerHuge)
	if err := a.AllocAt(0, mem.HugeOrder); err != nil {
		t.Fatal(err)
	}
	a.Free(16, 4) // frames 16-31 free as one order-4 block
	defer func() {
		if recover() == nil {
			t.Fatal("FreeMask of frame 17, inside a free order-4 block, did not panic")
		}
	}()
	a.FreeMask(0, &Mask{1 << 17})
}

// TestFreeMaskAllocatesNothing pins the recovery path: freeing a
// region in one call allocates nothing.
func TestFreeMaskAllocatesNothing(t *testing.T) {
	a := New(4 * mem.PagesPerHuge)
	var odd, even Mask
	for w := range odd {
		odd[w], even[w] = 0xaaaaaaaaaaaaaaaa, 0x5555555555555555
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := a.AllocAt(mem.PagesPerHuge, mem.HugeOrder); err != nil {
			t.Fatal(err)
		}
		a.FreeMask(1, &odd)
		a.FreeMask(1, &even)
	})
	if allocs != 0 {
		t.Errorf("AllocAt + 2 FreeMask allocate %v times per run, want 0", allocs)
	}
	if a.FreePages() != 4*mem.PagesPerHuge || a.FreeBlockCount(MaxOrder) != 2 {
		t.Fatalf("region did not merge back: %d free pages, %d order-10 blocks",
			a.FreePages(), a.FreeBlockCount(MaxOrder))
	}
}

// FuzzFreeMask runs one random legal operation sequence (allocations,
// targeted allocations, frees, reservations and their claims and
// finishes) on two allocators. Its FreeMask steps free a random subset
// of one region's held frames with FreeMask on the first allocator and
// with Free(f, 0) per frame on its twin; every step must leave both
// with the same books. The arena ends in a partial region, so the
// per-frame fallback is exercised too.
func FuzzFreeMask(f *testing.F) {
	f.Add([]byte{0, 9, 7, 0, 0, 3, 7, 3, 5, 1, 7, 1})
	f.Add([]byte{0, 9, 0, 9, 1, 40, 7, 128, 7, 129, 7, 1})
	f.Add([]byte{2, 8, 3, 4, 4, 9, 4, 77, 7, 4, 6, 0, 7, 12})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 7, 0, 0, 9, 7, 6, 7, 255})

	const regions = 8
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
		unreserve := func(hi uint64) {
			reserved = slices.DeleteFunc(reserved, func(r uint64) bool { return r == hi })
		}
		both := func(do func(a *Allocator) error) error {
			e1, e2 := do(got), do(want)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("twins disagree: %v vs %v", e1, e2)
			}
			return e1
		}
		x := uint64(0x9e3779b97f4a7c15) // mask stream, advanced per FreeMask step
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
			case 2: // Free one held frame outside any reservation
				for i := uint64(0); i < totalPages; i++ {
					f := (arg*97 + i) % totalPages
					if _, r := got.ReservationAt(f / mem.PagesPerHuge); held[f] && !r {
						got.Free(f, 0)
						want.Free(f, 0)
						held[f] = false
						break
					}
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
				unreserve(hi)
			case 6: // ConsumeReservationHuge
				if len(reserved) == 0 {
					continue
				}
				hi := reserved[int(arg)%len(reserved)]
				if both(func(a *Allocator) error { return a.ConsumeReservationHuge(hi) }) == nil {
					unreserve(hi)
					hold(hi*mem.PagesPerHuge, mem.HugeOrder)
				}
			case 7: // FreeMask a random subset of one region's held frames
				hi := arg % (regions + 1)
				base := hi * mem.PagesPerHuge
				var mask Mask
				for w := range mask {
					x = x*6364136223846793005 + 1442695040888963407
					pick := x ^ x>>29
					switch arg >> 4 % 4 {
					case 0:
						pick = ^uint64(0) // every held frame
					case 1:
						pick &= x >> 17 // sparse
					}
					for i := 0; i < 64; i++ {
						if f := base + uint64(w*64+i); f < totalPages && held[f] && pick&(1<<i) != 0 {
							mask[w] |= 1 << i
							held[f] = false
						}
					}
				}
				got.FreeMask(hi, &mask)
				freeEach(want, hi, &mask)
			}
			sameBooks(t, fmt.Sprintf("step %d (op %d)", step, op), got, want)
		}
	})
}

// TestFreeRegionsAtLeastFarApart checks FreeRegionsAtLeast against the
// per-frame runs on an allocator large enough that the free runs sit
// under different summary words of the order-5 bitmap, so the search
// for the next block has to skip empty summary words.
func TestFreeRegionsAtLeastFarApart(t *testing.T) {
	const pages = 1 << 20
	a := New(pages)
	for range pages / (1 << MaxOrder) {
		if _, err := a.Alloc(MaxOrder); err != nil {
			t.Fatal(err)
		}
	}
	// Free runs of assorted lengths and alignments, far apart.
	for i, r := range []mem.Region{{Start: 64, Pages: 64}, {Start: 4096*3 + 32, Pages: 96},
		{Start: 1 << 17, Pages: 1 << 12}, {Start: 1<<19 - 40, Pages: 200}, {Start: pages - 1024, Pages: 1024}} {
		for f := r.Start; f < r.End(); f++ {
			a.Free(f, 0)
		}
		checkRuns(t, fmt.Sprintf("after run %d", i), a)
	}
	if got := a.FreeRegionsAtLeast(64, nil); len(got) != 5 {
		t.Fatalf("FreeRegionsAtLeast(64) = %v, want the 5 freed runs", got)
	}
}
