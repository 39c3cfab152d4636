package buddy

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// FuzzAllocRun checks the run carves against their per-frame twins.
// One allocator takes AllocRun(n) and AllocRunAt(frame, n); its twin
// makes Alloc(0) calls up to n, the first failure or the first frame
// outside the run's 2 MiB region (which it frees again), and
// AllocAt(frame+i, 0) calls up to the first failure. Random Frees, reservations and claims mix the books
// up between runs. After every step both must have handed out the same
// frames and hold the same books: freeOrd, the per-order counts,
// FreePages, the free runs and a clean audit. The arena ends in a
// partial region, so runs meet the last frame too.
func FuzzAllocRun(f *testing.F) {
	f.Add([]byte{0, 40, 2, 3, 2, 9, 0, 200, 1, 77, 1, 3})
	f.Add([]byte{1, 0, 1, 255, 2, 1, 2, 2, 2, 5, 0, 255, 0, 255})
	f.Add([]byte{3, 2, 4, 9, 1, 130, 2, 17, 0, 64, 5, 0, 1, 12})
	f.Add([]byte{2, 0, 2, 1, 2, 2, 2, 3, 1, 1, 0, 3, 6, 9, 2, 40, 0, 90})

	const regions = 6
	const totalPages = regions*mem.PagesPerHuge + 200

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		got, want := New(totalPages), New(totalPages)
		// Hold the arena except a few scattered runs, so both run kinds
		// start on fragmented books.
		for f := uint64(0); f < totalPages; f++ {
			got.AllocAt(f, 0)
			want.AllocAt(f, 0)
		}
		var held [totalPages]bool
		for f := range held {
			held[f] = true
		}
		free := func(f uint64) {
			got.Free(f, 0)
			want.Free(f, 0)
			held[f] = false
		}
		for f := uint64(0); f < totalPages; f += 7 {
			free(f)
		}
		var reserved []uint64
		var out [mem.PagesPerHuge + 64]uint64
		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%7, uint64(data[step+1])
			switch op {
			case 0: // AllocRun
				n := min(int(arg)*3+1, len(out))
				k := got.AllocRun(n, out[:])
				for i := 0; i < n; i++ {
					f, err := want.Alloc(0)
					if err == nil && i > 0 && f/mem.PagesPerHuge != out[0]/mem.PagesPerHuge {
						want.Free(f, 0) // the run stops at its region's end
						err = fmt.Errorf("frame %#x leaves the region", f)
					}
					if err != nil {
						if i != k {
							t.Fatalf("step %d: AllocRun(%d) got %d frames, Alloc(0) stops after %d: %v", step, n, k, i, err)
						}
						break
					}
					if i >= k || out[i] != f {
						t.Fatalf("step %d: AllocRun(%d) frame %d is %#x of %d, Alloc(0) gives %#x", step, n, i, out[i], k, f)
					}
					held[f] = true
				}
			case 1: // AllocRunAt
				frame := arg * 53 % totalPages
				n := int(arg*7%uint64(len(out))) + 1
				k := got.AllocRunAt(frame, n)
				i := 0
				for ; i < n && want.AllocAt(frame+uint64(i), 0) == nil; i++ {
					held[frame+uint64(i)] = true
				}
				if k != i {
					t.Fatalf("step %d: AllocRunAt(%#x, %d) = %d, AllocAt stops after %d", step, frame, n, k, i)
				}
			case 2, 3: // Free a held frame, then its next few held neighbours
				for i := uint64(0); i < totalPages; i++ {
					f := (arg*97 + i) % totalPages
					if _, r := got.ReservationAt(f / mem.PagesPerHuge); !held[f] || r {
						continue
					}
					for j := f; j < min(f+arg%24+1, totalPages); j++ {
						if _, r := got.ReservationAt(j / mem.PagesPerHuge); held[j] && !r {
							free(j)
						}
					}
					break
				}
			case 4: // Reserve a region, freeing it first when it is held whole
				hi := arg % regions
				base := hi * mem.PagesPerHuge
				if _, r := got.ReservationAt(hi); r {
					continue
				}
				for f := base; f < base+mem.PagesPerHuge; f++ {
					if held[f] {
						free(f)
					}
				}
				_, e1 := got.Reserve(hi)
				_, e2 := want.Reserve(hi)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("step %d: Reserve(%d) twins disagree: %v vs %v", step, hi, e1, e2)
				}
				if e1 == nil {
					reserved = append(reserved, hi)
				}
			case 5: // AllocReservedRun against AllocReservedPage
				if len(reserved) == 0 {
					continue
				}
				hi := reserved[int(arg)%len(reserved)]
				frame := hi*mem.PagesPerHuge + arg*5%mem.PagesPerHuge
				n := int(arg%40) + 1
				k := got.AllocReservedRun(hi, frame, n)
				i := 0
				for ; i < n && want.AllocReservedPage(hi, frame+uint64(i)) == nil; i++ {
				}
				if k != i {
					t.Fatalf("step %d: AllocReservedRun(%d, %#x, %d) = %d, AllocReservedPage stops after %d",
						step, hi, frame, n, k, i)
				}
			case 6: // FinishReservation
				if len(reserved) == 0 {
					continue
				}
				i := int(arg) % len(reserved)
				hi := reserved[i]
				r, _ := got.ReservationAt(hi)
				for p := range mem.PagesPerHuge {
					held[hi*mem.PagesPerHuge+uint64(p)] = r.Claimed(p)
				}
				got.FinishReservation(hi)
				want.FinishReservation(hi)
				reserved = slices.Delete(reserved, i, i+1)
			}
			what := fmt.Sprintf("step %d (op %d)", step, op)
			if !slices.Equal(got.freeOrd, want.freeOrd) {
				t.Fatalf("%s: freeOrd differs from the per-frame twin's", what)
			}
			sameBooks(t, what, got, want)
		}
	})
}

// TestAllocRunCarvesWholeBlocks pins the carve on a fresh allocator: a
// run of 300 frames takes 0-299 and leaves 300-511 as blocks of orders
// 2, 4, 6 and 7, beside the order-9 block at 512 and the order-10 block
// at 1024. A second run of 700 then takes those four blocks, 300-511,
// and stops at the first region's end.
func TestAllocRunCarvesWholeBlocks(t *testing.T) {
	a := New(2048)
	var out [700]uint64
	for _, c := range []struct {
		n, want int
		from    uint64
		blocks  []uint64 // free blocks per order afterwards
	}{
		{300, 300, 0, []uint64{0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 1}},
		{700, 212, 300, []uint64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1}},
	} {
		k := a.AllocRun(c.n, out[:])
		if k != c.want {
			t.Fatalf("AllocRun(%d) = %d, want %d", c.n, k, c.want)
		}
		for i, f := range out[:k] {
			if f != c.from+uint64(i) {
				t.Fatalf("AllocRun(%d): frame %d is %#x", c.n, i, f)
			}
		}
		for o, want := range c.blocks {
			if g := a.FreeBlockCount(o); g != want {
				t.Errorf("after AllocRun(%d): order %d holds %d free blocks, want %d", c.n, o, g, want)
			}
		}
	}
}

// TestAllocRunAtMatchesAllocAt pins AllocRunAt against AllocAt frame by
// frame where a run starts inside a free block, spans several blocks,
// meets a held frame and meets the last frame.
func TestAllocRunAtMatchesAllocAt(t *testing.T) {
	const pages = 3*1024 + 100
	for _, c := range []struct {
		frame uint64
		n     int
	}{{1030, 20}, {1500, 600}, {2047, 2}, {pages - 5, 9}, {0, 1}} {
		got, want := New(pages), New(pages)
		for _, a := range []*Allocator{got, want} {
			a.AllocAt(2060, 0) // a held frame inside the second run
		}
		k := got.AllocRunAt(c.frame, c.n)
		i := 0
		for ; i < c.n && want.AllocAt(c.frame+uint64(i), 0) == nil; i++ {
		}
		what := fmt.Sprintf("AllocRunAt(%d, %d)", c.frame, c.n)
		if k != i {
			t.Fatalf("%s = %d, AllocAt stops after %d", what, k, i)
		}
		if !slices.Equal(got.freeOrd, want.freeOrd) {
			t.Fatalf("%s: freeOrd differs from AllocAt's", what)
		}
		sameBooks(t, what, got, want)
	}
}
