package buddy

import (
	"fmt"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// FuzzBuddyAllocFree drives random but legal operation sequences
// against the allocator and checks three oracles after every step: the
// allocator's own invariant audit, an external page-conservation model
// kept by the fuzzer (total = free + tracked allocations + withdrawn
// reservations), and FreeRegionsAtLeast's bitmap merge against the
// free runs found frame by frame (checkRuns). Every
// untargeted Alloc is also checked against lowestFreeSweep, so the
// bitmap books pick the same block the free map says they must.
func FuzzBuddyAllocFree(f *testing.F) {
	// Seeds touching every opcode at least once.
	f.Add([]byte{0, 9, 0, 0, 1, 0, 2, 8, 3, 2, 4, 7, 5, 0, 6, 0})
	f.Add([]byte{3, 1, 4, 0, 4, 1, 3, 1, 6, 0})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 1, 0, 1, 0, 2, 31, 2, 64})
	f.Add([]byte{3, 0, 3, 1, 3, 2, 4, 5, 5, 0, 6, 0})

	const totalPages = 8 * mem.PagesPerHuge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		a := New(totalPages)

		type block struct {
			start uint64
			order int
		}
		type claim struct {
			frame, hugeIdx uint64
		}
		var allocs []block
		var claims []claim
		reserved := map[uint64]bool{}
		var reservedList []uint64 // deterministic pick order

		dropReserved := func(hi uint64) {
			delete(reserved, hi)
			for i, v := range reservedList {
				if v == hi {
					reservedList = append(reservedList[:i], reservedList[i+1:]...)
					break
				}
			}
		}

		check := func(step int, op string) {
			t.Helper()
			if vs := a.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("step %d (%s): %s", step, op, audit.Report(vs))
			}
			checkRuns(t, fmt.Sprintf("step %d (%s)", step, op), a)
			// External conservation model: claimed pages of finished
			// reservations are ordinary allocated pages; active
			// reservations withdraw their whole region.
			model := a.FreePages() + 512*uint64(len(reserved))
			for _, b := range allocs {
				model += uint64(1) << b.order
			}
			for _, c := range claims {
				if !reserved[c.hugeIdx] {
					model += 1
				}
			}
			if model != totalPages {
				t.Fatalf("step %d (%s): conservation model %d != total %d",
					step, op, model, totalPages)
			}
		}

		for step := 0; step+1 < len(data); step += 2 {
			op, arg := data[step]%7, uint64(data[step+1])
			switch op {
			case 0: // Alloc
				order := int(arg) % (MaxOrder + 1)
				want, wantOK := lowestFreeSweep(a, order)
				start, err := a.Alloc(order)
				if (err == nil) != wantOK || (wantOK && start != want) {
					t.Fatalf("step %d: Alloc(%d) = %#x, %v; free-map sweep says %#x, %v",
						step, order, start, err, want, wantOK)
				}
				if err == nil {
					allocs = append(allocs, block{start, order})
				}
				check(step, "Alloc")
			case 1: // Free a tracked allocation
				if len(allocs) == 0 {
					continue
				}
				i := int(arg) % len(allocs)
				b := allocs[i]
				allocs = append(allocs[:i], allocs[i+1:]...)
				a.Free(b.start, b.order)
				check(step, "Free")
			case 2: // AllocAt
				order := int(arg) % 4
				frame := (arg * 16) % totalPages
				frame &^= (uint64(1) << order) - 1
				if err := a.AllocAt(frame, order); err == nil {
					allocs = append(allocs, block{frame, order})
				}
				check(step, "AllocAt")
			case 3: // Reserve
				hi := arg % (totalPages / mem.PagesPerHuge)
				if _, err := a.Reserve(hi); err == nil {
					reserved[hi] = true
					reservedList = append(reservedList, hi)
				}
				check(step, "Reserve")
			case 4: // AllocReservedPage
				if len(reservedList) == 0 {
					continue
				}
				hi := reservedList[int(arg)%len(reservedList)]
				frame := hi*mem.PagesPerHuge + arg%mem.PagesPerHuge
				if err := a.AllocReservedPage(hi, frame); err == nil {
					claims = append(claims, claim{frame, hi})
				}
				check(step, "AllocReservedPage")
			case 5: // Free a claimed page (to reservation or free lists)
				if len(claims) == 0 {
					continue
				}
				i := int(arg) % len(claims)
				c := claims[i]
				claims = append(claims[:i], claims[i+1:]...)
				a.Free(c.frame, 0)
				check(step, "Free(claimed)")
			case 6: // FinishReservation
				if len(reservedList) == 0 {
					continue
				}
				hi := reservedList[int(arg)%len(reservedList)]
				if _, err := a.FinishReservation(hi); err == nil {
					dropReserved(hi)
				}
				check(step, "FinishReservation")
			}
		}
	})
}

// lowestFreeSweep is Alloc's reference choice, read off the free map
// alone: the lowest-addressed free block of the smallest order >=
// order that has one (Alloc splits that block and returns its start).
func lowestFreeSweep(a *Allocator, order int) (uint64, bool) {
	for o := order; o <= MaxOrder; o++ {
		for s, fo := range a.freeOrd {
			if int(fo) == o {
				return uint64(s), true
			}
		}
	}
	return 0, false
}
