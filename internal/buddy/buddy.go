// Package buddy implements a binary buddy allocator modelled on the
// Linux page allocator, the component Gemini's prototype modifies most
// heavily (~1700 LoC in page_alloc.c per §5 of the paper).
//
// Free memory is grouped into order-x blocks of 2^x naturally aligned
// base frames, for orders 0 through MaxOrder (4 KiB through 4 MiB).
// Beyond the classic Alloc/Free interface the allocator supports the
// operations Gemini needs:
//
//   - AllocAt: targeted allocation of a specific block, used by the
//     enhanced memory allocator (EMA) to place base pages at the frame
//     computed from a VMA's offset descriptor.
//   - Reservations: huge-page-sized regions temporarily withdrawn from
//     general allocation (the huge booking component), from which only
//     page-at-a-time targeted allocations or a whole-huge-page
//     consumption are allowed until release.
//   - FMFI: the free memory fragmentation index used by Ingens, HawkEye
//     and Gemini's Algorithm 1 to measure fragmentation.
//   - FreeMask: frees any set of frames of one 2 MiB region in one
//     call. Free merges buddies eagerly, so the books are canonical (a
//     block is free at order k exactly when all its frames are free
//     and its parent is not) and FreeMask can rebuild a region's
//     blocks from its free frames instead of freeing them one by one.
//     The fragmenter and its recovery, compaction and reservation
//     release free whole regions this way.
//
// Allocation is deterministic: untargeted allocations always return the
// lowest-addressed free block of the requested order, which both keeps
// runs reproducible and mimics the anti-fragmentation benefit of
// packing small allocations low (§5, "Gemini contiguity list").
//
// See DESIGN.md §2 (system inventory) for the allocator's role and
// DESIGN.md §7 (performance model) for the flat free-book layout the
// hot path depends on.
package buddy

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/audit"
	"repro/internal/mem"
)

// MaxOrder is the largest block order. Order 10 blocks span 1024 base
// frames (4 MiB), matching the paper's description of the Linux buddy
// allocator ("existing buddy allocator can only allocate up to 4MB").
const MaxOrder = 10

// NumOrders is the number of distinct block orders (0..MaxOrder).
const NumOrders = MaxOrder + 1

// Errors returned by the allocator.
var (
	ErrNoMemory    = errors.New("buddy: out of memory at requested order")
	ErrNotFree     = errors.New("buddy: target block is not free")
	ErrReserved    = errors.New("buddy: target block is reserved")
	ErrBadArgument = errors.New("buddy: invalid argument")
	ErrNotReserved = errors.New("buddy: region is not reserved")
)

// freeSet is the free book of one order: a two-level bitmap over block
// indices (start>>order). Bit i of leaf is set while the block starting
// at frame i<<order is free at this order; bit w of summary is set
// while leaf[w] is nonzero. The lowest free block is then two
// trailing-zero counts away, and insert and remove are a bit set and a
// bit clear.
type freeSet struct {
	leaf    []uint64
	summary []uint64
	// lo is a lower bound on the first nonzero summary word: every
	// summary word below it is zero. It only ever saves scanning.
	lo int
}

// newFreeSets builds the books of every order for totalPages frames
// over one shared backing array, so a new allocator makes one
// allocation for all of them.
func newFreeSets(totalPages uint64) [NumOrders]freeSet {
	var leafWords, sumWords [NumOrders]uint64
	var total uint64
	for o := range leafWords {
		leafWords[o] = (totalPages>>o + 63) / 64
		sumWords[o] = (leafWords[o] + 63) / 64
		total += leafWords[o] + sumWords[o]
	}
	backing := make([]uint64, total)
	var sets [NumOrders]freeSet
	for o := range sets {
		sets[o].leaf, backing = backing[:leafWords[o]:leafWords[o]], backing[leafWords[o]:]
		sets[o].summary, backing = backing[:sumWords[o]:sumWords[o]], backing[sumWords[o]:]
	}
	return sets
}

func (s *freeSet) has(i uint64) bool { return s.leaf[i/64]&(1<<(i%64)) != 0 }

func (s *freeSet) add(i uint64) {
	w := i / 64
	s.leaf[w] |= 1 << (i % 64)
	s.summary[w/64] |= 1 << (w % 64)
	if sw := int(w / 64); sw < s.lo {
		s.lo = sw
	}
}

func (s *freeSet) remove(i uint64) {
	w := i / 64
	s.leaf[w] &^= 1 << (i % 64)
	if s.leaf[w] == 0 {
		s.summary[w/64] &^= 1 << (w % 64)
	}
}

// take clears the bits of m in leaf word w and returns those that were
// set.
func (s *freeSet) take(w, m uint64) uint64 {
	got := s.leaf[w] & m
	if s.leaf[w] &^= got; got != 0 && s.leaf[w] == 0 {
		s.summary[w/64] &^= 1 << (w % 64)
	}
	return got
}

// put sets the bits of m, which must be nonzero, in leaf word w.
func (s *freeSet) put(w, m uint64) {
	s.leaf[w] |= m
	s.summary[w/64] |= 1 << (w % 64)
	if sw := int(w / 64); sw < s.lo {
		s.lo = sw
	}
}

// next returns the smallest index in the set at or above i, or false
// when there is none.
func (s *freeSet) next(i uint64) (uint64, bool) {
	w := i / 64
	if w >= uint64(len(s.leaf)) {
		return 0, false
	}
	if m := s.leaf[w] &^ (1<<(i%64) - 1); m != 0 {
		return w*64 + uint64(bits.TrailingZeros64(m)), true
	}
	for w++; w/64 < uint64(len(s.summary)); w = (w/64 + 1) * 64 {
		if sum := s.summary[w/64] &^ (1<<(w%64) - 1); sum != 0 {
			w = w/64*64 + uint64(bits.TrailingZeros64(sum))
			return w*64 + uint64(bits.TrailingZeros64(s.leaf[w])), true
		}
	}
	return 0, false
}

// lowest returns the smallest index in the set, or false when empty.
func (s *freeSet) lowest() (uint64, bool) {
	for ; s.lo < len(s.summary); s.lo++ {
		if sum := s.summary[s.lo]; sum != 0 {
			w := uint64(s.lo)*64 + uint64(bits.TrailingZeros64(sum))
			return w*64 + uint64(bits.TrailingZeros64(s.leaf[w])), true
		}
	}
	return 0, false
}

// Reservation tracks a huge-page-sized region booked by Gemini's huge
// booking component. Pages within are handed out individually through
// AllocReservedPage; unclaimed pages return to the free lists when the
// reservation is released.
type Reservation struct {
	// HugeIndex identifies the 2 MiB region (frame / 512).
	HugeIndex uint64
	// claimed marks which of the 512 pages have been handed out.
	claimed Mask
	// nAllocated counts handed-out pages.
	nAllocated int
	// Deadline is the tick at which the booking times out; maintained
	// by the booking component, stored here for introspection.
	Deadline uint64
}

// Start returns the first frame of the reserved region.
func (r *Reservation) Start() uint64 { return r.HugeIndex * mem.PagesPerHuge }

// Allocated returns how many pages of the reservation have been claimed.
func (r *Reservation) Allocated() int { return r.nAllocated }

// Claimed reports whether page i (0..511) of the reservation has been
// handed out.
func (r *Reservation) Claimed(i int) bool {
	return i >= 0 && i < mem.PagesPerHuge && r.claimed[i/64]&(1<<(i%64)) != 0
}

// Allocator is a binary buddy allocator over a contiguous range of
// frames [0, TotalPages).
type Allocator struct {
	totalPages uint64
	freePages  uint64

	// freeOrd[f] is the order of the free block starting at frame f,
	// or -1 when f does not start a free block. A flat array rather
	// than a map: the buddy books are consulted on every fault-path
	// allocation and free, and frame numbers are dense in
	// [0, totalPages), so the array replaces hashing (and map growth)
	// with one indexed byte load at a cost of one byte per frame.
	freeOrd []int8
	// free[o] marks the free order-o blocks by index start>>o; it
	// agrees with freeOrd at every (start, order).
	free [NumOrders]freeSet
	// counts[o] is the number of live free blocks at order o.
	counts [NumOrders]uint64

	// reservations maps huge index -> active reservation.
	reservations map[uint64]*Reservation
}

// New creates an allocator managing totalPages base frames, all free.
func New(totalPages uint64) *Allocator {
	a := &Allocator{
		totalPages:   totalPages,
		freeOrd:      make([]int8, totalPages),
		reservations: make(map[uint64]*Reservation),
	}
	for i := range a.freeOrd {
		a.freeOrd[i] = -1
	}
	a.free = newFreeSets(totalPages)
	// Seed free lists with the largest aligned blocks that fit.
	frame := uint64(0)
	for frame < totalPages {
		o := MaxOrder
		for o > 0 {
			size := uint64(1) << o
			if frame%size == 0 && frame+size <= totalPages {
				break
			}
			o--
		}
		a.insertFree(frame, uint8(o))
		frame += uint64(1) << o
	}
	a.freePages = totalPages
	return a
}

// TotalPages returns the number of frames managed by the allocator.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages returns the number of currently free frames (excluding
// reserved but unclaimed pages, which are counted as unavailable).
func (a *Allocator) FreePages() uint64 { return a.freePages }

// FreeBlockCount returns the number of free blocks at the given order.
func (a *Allocator) FreeBlockCount(order int) uint64 {
	if order < 0 || order > MaxOrder {
		return 0
	}
	return a.counts[order]
}

// insertFree adds a free block to the books.
func (a *Allocator) insertFree(start uint64, order uint8) {
	a.freeOrd[start] = int8(order)
	a.counts[order]++
	a.free[order].add(start >> order)
}

// removeFree deletes a known-free block from the books.
func (a *Allocator) removeFree(start uint64, order uint8) {
	a.freeOrd[start] = -1
	a.counts[order]--
	a.free[order].remove(start >> order)
}

// lowestFree returns the lowest-addressed free block of the order, or
// false if none exists. The block stays on the books. An empty order
// is answered from its counter: Alloc asks on every split that drains
// an order, and the bitmap would be scanned to its end to say no.
func (a *Allocator) lowestFree(order int) (uint64, bool) {
	if a.counts[order] == 0 {
		return 0, false
	}
	i, ok := a.free[order].lowest()
	return i << order, ok
}

// Alloc allocates a block of 2^order frames and returns its first
// frame. It splits larger blocks as needed, always choosing the
// lowest-addressed candidate.
func (a *Allocator) Alloc(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("%w: order %d", ErrBadArgument, order)
	}
	for o := order; o <= MaxOrder; o++ {
		start, ok := a.lowestFree(o)
		if !ok {
			continue
		}
		a.removeFree(start, uint8(o))
		// Split down to the requested order, freeing upper halves.
		for cur := o; cur > order; cur-- {
			half := uint64(1) << (cur - 1)
			a.insertFree(start+half, uint8(cur-1))
		}
		a.freePages -= uint64(1) << order
		return start, nil
	}
	return 0, ErrNoMemory
}

// containing returns the free block that holds frame, which must be
// below totalPages: its first frame and order. ok is false when no free
// block holds it; start and order mean nothing then. A block holding
// frame starts at frame rounded down to the block's order, and those
// starts change only at frame's set bits, so it reads frame's own entry
// and then one start per set bit, lowest first. It stops at the first
// start that begins a free block: a free block there of order at most
// the bit rules out any larger free block around frame, because free
// blocks never overlap. Free asks on every call, so this usually
// answers within a load or two, where probing every order would read
// eleven.
func (a *Allocator) containing(frame uint64) (start uint64, order uint8, ok bool) {
	if o := a.freeOrd[frame]; o >= 0 {
		return frame, uint8(o), true
	}
	for rest := frame & (1<<MaxOrder - 1); rest != 0; rest &= rest - 1 {
		b := bits.TrailingZeros64(rest)
		s := frame &^ (1<<(b+1) - 1)
		if o := a.freeOrd[s]; o >= 0 {
			return s, uint8(o), int(o) > b
		}
	}
	return 0, 0, false
}

// AllocAt allocates the specific block [frame, frame+2^order). The
// frame must be naturally aligned to the order and the whole block must
// be free (possibly inside a larger free block, which is split).
func (a *Allocator) AllocAt(frame uint64, order int) error {
	if order < 0 || order > MaxOrder {
		return fmt.Errorf("%w: order %d", ErrBadArgument, order)
	}
	size := uint64(1) << order
	if frame%size != 0 {
		return fmt.Errorf("%w: frame %#x not aligned to order %d", ErrBadArgument, frame, order)
	}
	if frame+size > a.totalPages {
		return fmt.Errorf("%w: frame %#x beyond end", ErrBadArgument, frame)
	}
	if a.isReservedRange(frame, size) {
		return ErrReserved
	}
	start, fo, ok := a.containing(frame)
	if !ok || int(fo) < order {
		return ErrNotFree
	}
	a.removeFree(start, fo)
	// Split the containing block down, keeping the half containing
	// the target and freeing the other half, until the block is the
	// target itself.
	for cur := int(fo); cur > order; cur-- {
		half := uint64(1) << (cur - 1)
		if frame < start+half {
			a.insertFree(start+half, uint8(cur-1))
		} else {
			a.insertFree(start, uint8(cur-1))
			start += half
		}
	}
	a.freePages -= size
	return nil
}

// FreeBlockAt returns the free block that contains the frame: its
// first frame and order. ok is false when the frame is allocated,
// reserved or out of range. It reads the books and changes nothing, so
// compaction can check a whole region before it claims any of it.
func (a *Allocator) FreeBlockAt(frame uint64) (start uint64, order int, ok bool) {
	if frame >= a.totalPages {
		return 0, 0, false
	}
	s, o, ok := a.containing(frame)
	return s, int(o), ok
}

// FrameFree reports whether the single frame sits inside any free
// block, regardless of alignment or reservations. The cross-layer
// auditor uses it to detect frames that are simultaneously mapped and
// free (a use-after-free or leak in the making).
func (a *Allocator) FrameFree(frame uint64) bool {
	_, _, ok := a.FreeBlockAt(frame)
	return ok
}

// Free returns the block [frame, frame+2^order) to the allocator,
// merging with free buddies as far as possible.
func (a *Allocator) Free(frame uint64, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: Free with bad order %d", order))
	}
	size := uint64(1) << order
	if frame%size != 0 || frame+size > a.totalPages {
		panic(fmt.Sprintf("buddy: Free(%#x, %d) out of range or misaligned", frame, order))
	}
	// A page claimed from a still-active reservation returns to that
	// reservation, not to the free lists: the region stays withdrawn
	// from general allocation until the booking ends.
	if order == 0 {
		if r, ok := a.reservations[frame/mem.PagesPerHuge]; ok {
			idx := frame - r.Start()
			if r.claimed[idx/64]&(1<<(idx%64)) == 0 {
				panic(fmt.Sprintf("buddy: double free of reserved page %#x", frame))
			}
			r.claimed[idx/64] &^= 1 << (idx % 64)
			r.nAllocated--
			return
		}
	}
	if _, _, ok := a.containing(frame); ok {
		panic(fmt.Sprintf("buddy: double free of block %#x order %d", frame, order))
	}
	a.freePages += size
	o := uint8(order)
	start := frame
	for int(o) < MaxOrder {
		buddyStart := start ^ (uint64(1) << o)
		if buddyStart+(uint64(1)<<o) > a.totalPages || a.freeOrd[buddyStart] != int8(o) {
			break
		}
		bo := o
		// Merge with buddy.
		a.removeFree(buddyStart, bo)
		if buddyStart < start {
			start = buddyStart
		}
		o++
	}
	a.insertFree(start, o)
}

// Mask is a 2 MiB region's frames as a bitmap: bit i of word i/64
// stands for frame i%64 of that word's 64-frame run.
type Mask = [mem.PagesPerHuge / 64]uint64

// FreeMask frees every frame whose bit is set in mask, of the 2 MiB
// region with the given huge index, in one call. It ends in exactly the
// state that Free(f, 0) on each set frame in ascending order leaves
// (FuzzFreeMask). A set frame that is already free panics: Free checks
// only the first frame of the block it frees, FreeMask checks every
// frame, and on the one-call path it does so before it changes anything.
//
// The books are canonical: a block is free at order k exactly when all
// its frames are free and its parent block is not, whatever order the
// frees came in. So FreeMask works on the region's blocks one order at
// a time, one bit per block: the mask's frames and the region's free
// blocks come off the books, buddy pairs of wholly free blocks combine
// into the next order, and the blocks left unpaired go on the books. A
// wholly free region then merges upward the way Free(start, HugeOrder)
// does. A reserved region, whose frames go back to the reservation,
// and a region running past the last frame take the per-frame path.
func (a *Allocator) FreeMask(huge uint64, mask *Mask) {
	base := huge * mem.PagesPerHuge
	if _, reserved := a.reservations[huge]; reserved || base+mem.PagesPerHuge > a.totalPages {
		for w, word := range mask {
			for ; word != 0; word &= word - 1 {
				a.Free(base+uint64(w*64+bits.TrailingZeros64(word)), 0)
			}
		}
		return
	}
	n := 0
	for _, word := range mask {
		n += bits.OnesCount64(word)
	}
	if n == 0 {
		return
	}
	// Check first: no free block may hold a set frame. touched marks
	// the region's order-k blocks that hold one.
	if top := base &^ (1<<MaxOrder - 1); a.freeOrd[top] == MaxOrder {
		panic(fmt.Sprintf("buddy: double free inside free block %#x", top))
	}
	touched := *mask
	for k, nw := 0, len(touched); k <= mem.HugeOrder; k, nw = k+1, max(1, nw/2) {
		for w := range nw {
			i, sh, m := regionSlot(huge, k, w)
			if hit := (a.free[k].leaf[i] & m >> sh) & touched[w]; hit != 0 {
				b := base + uint64(w*64+bits.TrailingZeros64(hit))<<k
				panic(fmt.Sprintf("buddy: double free inside free block %#x", b))
			}
			halve(&touched, w, touched[w]|touched[w]>>1)
		}
	}
	// free marks the region's order-k blocks that are wholly free with
	// the mask freed, excluding those inside a larger free block. The
	// books' order-k blocks join them; a block whose buddy is free too
	// pairs up into order k+1, and the rest go on the books at order k.
	free := *mask
	for k, nw := 0, len(free); k < mem.HugeOrder; k, nw = k+1, max(1, nw/2) {
		for w := range nw {
			i, sh, m := regionSlot(huge, k, w)
			old := a.free[k].take(i, m) >> sh
			a.markStarts(base, k, w, old, -1)
			x := free[w] | old
			pairs := x & (x >> 1) & evenBits
			blocks := x &^ (pairs | pairs<<1)
			if blocks != 0 {
				a.free[k].put(i, blocks<<sh)
				a.markStarts(base, k, w, blocks, int8(k))
			}
			a.counts[k] += uint64(bits.OnesCount64(blocks))
			a.counts[k] -= uint64(bits.OnesCount64(old))
			halve(&free, w, pairs)
		}
	}
	if free[0] == 0 {
		a.freePages += uint64(n)
		return
	}
	// The region is wholly free: Free files it as one order-9 block,
	// merged upward, and counts all 512 frames as freed.
	a.freePages += uint64(n) - mem.PagesPerHuge
	a.Free(base, mem.HugeOrder)
}

// markStarts sets freeOrd to o at the start of each order-k block of
// the region at base that word w of a region bitmap marks.
func (a *Allocator) markStarts(base uint64, k, w int, blocks uint64, o int8) {
	for ; blocks != 0; blocks &= blocks - 1 {
		a.freeOrd[base+uint64(w*64+bits.TrailingZeros64(blocks))<<k] = o
	}
}

// evenBits selects the even bit positions: the first block of each
// buddy pair.
const evenBits = 0x5555555555555555

// halve packs the even bits of x, word w of one order's region bitmap,
// into word w/2 of the next order's: the low half when w is even, the
// high half when it is odd. Words are read in ascending order and
// w/2 <= w, so no word still to be read is overwritten.
func halve(lvl *Mask, w int, x uint64) {
	x &= evenBits
	x = (x | x>>1) & 0x3333333333333333
	x = (x | x>>2) & 0x0f0f0f0f0f0f0f0f
	x = (x | x>>4) & 0x00ff00ff00ff00ff
	x = (x | x>>8) & 0x0000ffff0000ffff
	x = (x | x>>16) & 0x00000000ffffffff
	if w%2 == 0 {
		lvl[w/2] = x
	} else {
		lvl[w/2] |= x << 32
	}
}

// regionSlot locates word w of a region bitmap at order k (one bit per
// order-k block of the 2 MiB region with the given huge index, from
// bit 0) in the order-k books: leaf word i holds it at the bits of m,
// shifted left by sh. A region is 512>>k blocks: whole leaf words up
// to order 3, part of one word above.
func regionSlot(huge uint64, k, w int) (i uint64, sh uint, m uint64) {
	nb := uint64(mem.PagesPerHuge) >> k
	first := huge*nb + uint64(w)*64
	m = ^uint64(0)
	if nb < 64 {
		m = 1<<nb - 1
	}
	sh = uint(first % 64)
	return first / 64, sh, m << sh
}

// --- Reservations (huge booking) ---

// isReservedRange reports whether any frame in [frame, frame+size)
// belongs to an active reservation.
func (a *Allocator) isReservedRange(frame, size uint64) bool {
	first := frame / mem.PagesPerHuge
	last := (frame + size - 1) / mem.PagesPerHuge
	for hi := first; hi <= last; hi++ {
		if _, ok := a.reservations[hi]; ok {
			return true
		}
	}
	return false
}

// Reserve withdraws the 2 MiB region with the given huge index from
// general allocation. The whole region must currently be free. The
// returned Reservation hands out pages via AllocReservedPage or is
// consumed whole via ConsumeReservationHuge.
func (a *Allocator) Reserve(hugeIndex uint64) (*Reservation, error) {
	start := hugeIndex * mem.PagesPerHuge
	if start+mem.PagesPerHuge > a.totalPages {
		return nil, fmt.Errorf("%w: huge index %d beyond end", ErrBadArgument, hugeIndex)
	}
	if _, ok := a.reservations[hugeIndex]; ok {
		return nil, fmt.Errorf("%w: huge index %d already reserved", ErrBadArgument, hugeIndex)
	}
	if err := a.AllocAt(start, mem.HugeOrder); err != nil {
		return nil, err
	}
	r := &Reservation{HugeIndex: hugeIndex}
	a.reservations[hugeIndex] = r
	return r, nil
}

// ReservationAt returns the active reservation covering the huge index,
// if any.
func (a *Allocator) ReservationAt(hugeIndex uint64) (*Reservation, bool) {
	r, ok := a.reservations[hugeIndex]
	return r, ok
}

// ReservationCount returns the number of active reservations.
func (a *Allocator) ReservationCount() int { return len(a.reservations) }

// ForEachReservation calls fn with every active reservation, in
// unspecified order. The auditors use it to cross-check bookkeeping
// held outside the allocator.
func (a *Allocator) ForEachReservation(fn func(r *Reservation)) {
	for _, r := range a.reservations {
		fn(r)
	}
}

// AllocReservedPage claims one base page inside a reservation. The
// frame must lie inside the reserved region and be unclaimed.
func (a *Allocator) AllocReservedPage(hugeIndex, frame uint64) error {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return ErrNotReserved
	}
	idx := int64(frame) - int64(r.Start())
	if idx < 0 || idx >= mem.PagesPerHuge {
		return fmt.Errorf("%w: frame %#x outside reservation %d", ErrBadArgument, frame, hugeIndex)
	}
	if r.claimed[idx/64]&(1<<(idx%64)) != 0 {
		return ErrNotFree
	}
	r.claimed[idx/64] |= 1 << (idx % 64)
	r.nAllocated++
	return nil
}

// ConsumeReservationHuge converts the whole reservation into a regular
// huge-page allocation: all 512 pages become allocated and the
// reservation is dissolved. Fails if any page was already individually
// claimed (the caller should then finish claiming pages instead).
func (a *Allocator) ConsumeReservationHuge(hugeIndex uint64) error {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return ErrNotReserved
	}
	if r.nAllocated != 0 {
		return fmt.Errorf("%w: reservation %d partially claimed", ErrBadArgument, hugeIndex)
	}
	delete(a.reservations, hugeIndex)
	return nil
}

// FinishReservation dissolves a reservation whose pages were claimed
// individually: claimed pages stay allocated, unclaimed pages return to
// the free lists. Returns the number of pages that were claimed.
func (a *Allocator) FinishReservation(hugeIndex uint64) (int, error) {
	r, ok := a.reservations[hugeIndex]
	if !ok {
		return 0, ErrNotReserved
	}
	delete(a.reservations, hugeIndex)
	var unclaimed Mask
	for w, c := range r.claimed {
		unclaimed[w] = ^c
	}
	a.FreeMask(hugeIndex, &unclaimed)
	return r.nAllocated, nil
}

// --- Fragmentation metrics ---

// FMFI returns the free memory fragmentation index at the given order:
// the fraction of free memory that is unusable for an allocation of
// that order. 0 means all free memory sits in blocks >= order;
// values approaching 1 mean free memory is shattered. Returns 1 when
// no memory is free.
func (a *Allocator) FMFI(order int) float64 {
	if a.freePages == 0 {
		return 1
	}
	var usable uint64
	for o := order; o <= MaxOrder; o++ {
		usable += a.counts[o] << uint(o)
	}
	return 1 - float64(usable)/float64(a.freePages)
}

// LargestFreeOrder returns the highest order with at least one free
// block, or -1 when nothing is free.
func (a *Allocator) LargestFreeOrder() int {
	for o := MaxOrder; o >= 0; o-- {
		if a.counts[o] > 0 {
			return o
		}
	}
	return -1
}

// FreeHugeCandidates returns how many distinct, free, huge-aligned
// 2 MiB regions exist right now (free blocks of order >= HugeOrder,
// counted in huge-page units).
func (a *Allocator) FreeHugeCandidates() uint64 {
	var n uint64
	for o := mem.HugeOrder; o <= MaxOrder; o++ {
		n += a.counts[o] << uint(o-mem.HugeOrder)
	}
	return n
}

// FreeRegionsAtLeast returns the maximal runs of at least minPages free
// frames in address order, appended to out[:0]; reserved regions are
// not free. A run of at least 2^(k+1) frames holds a naturally aligned
// 2^k-frame block, and because Free merges buddies eagerly that block
// lies inside one free block of order >= k (DESIGN.md §7.2). So with k
// the largest order for which minPages >= 2^(k+1), it visits only the
// free blocks of orders k through MaxOrder, in address order, by
// merging their bitmaps, and grows each into its run.
func (a *Allocator) FreeRegionsAtLeast(minPages uint64, out []mem.Region) []mem.Region {
	k := min(max(bits.Len64(minPages)-2, 0), MaxOrder)
	out = out[:0]
	// next[o] is the first frame of the lowest free order-o block at or
	// after the scan position, or totalPages when there is none.
	var next [NumOrders]uint64
	a.nextBlocks(&next, k, 0)
	for {
		i := a.totalPages
		for o := k; o <= MaxOrder; o++ {
			i = min(i, next[o])
		}
		if i == a.totalPages {
			return out
		}
		// Walk back: a free order-o block ending at start begins at
		// start-2^o, which must be 2^o-aligned. After each step the
		// scan restarts at order 0.
		start := i
		for o := 0; o <= MaxOrder && start%(1<<o) == 0 && start >= 1<<o; o++ {
			if a.freeOrd[start-1<<o] == int8(o) {
				start -= 1 << o
				o = -1
			}
		}
		end := i
		for end < a.totalPages && a.freeOrd[end] >= 0 {
			end += uint64(1) << a.freeOrd[end]
		}
		if end-start >= minPages {
			out = append(out, mem.Region{Start: start, Pages: end - start})
		}
		a.nextBlocks(&next, k, end)
	}
}

// nextBlocks moves every next[o] at or below pos, for orders k through
// MaxOrder, to the first free order-o block at or after pos. pos is
// never itself the start of a free block, except on the first call,
// where it is 0 and so is every next[o].
func (a *Allocator) nextBlocks(next *[NumOrders]uint64, k int, pos uint64) {
	for o := k; o <= MaxOrder; o++ {
		if next[o] <= pos {
			next[o] = a.totalPages
			if i, ok := a.free[o].next((pos + 1<<o - 1) >> o); ok {
				next[o] = i << o
			}
		}
	}
}

// auditLayer labels buddy violations in audit reports.
const auditLayer = "buddy"

// CheckInvariants recomputes the allocator's invariants from scratch
// and reports every discrepancy against the incremental bookkeeping:
//
//   - free blocks are order-aligned, in bounds, and disjoint;
//   - per-order counts and freePages match a recount of the free map
//     (block conservation: free + allocated + reserved == total, with
//     allocated implicitly total minus the other two);
//   - each order's bitmap marks exactly the blocks the free map files
//     at that order, so targeted and untargeted allocation agree on
//     what is free;
//   - reserved regions are wholly withdrawn from the free lists, and
//     each reservation's claim bitmap matches its claim counter;
//   - FMFI computed from the incremental counters matches an FMFI
//     recomputed from the free map alone.
func (a *Allocator) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	var sum uint64
	var counts [NumOrders]uint64
	type span struct{ start, end uint64 }
	var spans []span
	for s := range a.freeOrd {
		if a.freeOrd[s] < 0 {
			continue
		}
		start, o := uint64(s), uint8(a.freeOrd[s])
		size := uint64(1) << o
		if int(o) > MaxOrder {
			vs = append(vs, audit.Violationf(auditLayer, "block-order", start,
				"free block has order %d > MaxOrder %d", o, MaxOrder))
			continue
		}
		if start%size != 0 {
			vs = append(vs, audit.Violationf(auditLayer, "block-alignment", start,
				"free block of order %d not aligned to %d frames", o, size))
		}
		if start+size > a.totalPages {
			vs = append(vs, audit.Violationf(auditLayer, "block-bounds", start,
				"free block of order %d ends at %#x past total %#x",
				o, start+size, a.totalPages))
		}
		sum += size
		counts[o]++
		spans = append(spans, span{start, start + size})
	}
	if sum != a.freePages {
		vs = append(vs, audit.Violationf(auditLayer, "conservation", 0,
			"freePages counter %d != %d frames summed over free blocks",
			a.freePages, sum))
	}
	for o := range counts {
		if counts[o] != a.counts[o] {
			vs = append(vs, audit.Violationf(auditLayer, "free-count", uint64(o),
				"order %d holds %d free blocks but counter says %d",
				o, counts[o], a.counts[o]))
		}
	}
	// Disjointness of free blocks (spans come out of the array sweep
	// already sorted by start).
	var prevEnd uint64
	for _, sp := range spans {
		if sp.start < prevEnd {
			vs = append(vs, audit.Violationf(auditLayer, "block-overlap", sp.start,
				"free block overlaps the preceding block ending at %#x", prevEnd))
		}
		prevEnd = sp.end
	}
	// Bitmap agreement: each order's bitmap marks exactly the blocks
	// freeOrd files at that order (Alloc finds blocks through the
	// bitmaps, AllocAt and Free through freeOrd), and its summary and
	// scan hint agree with its leaf words.
	for s, o := range a.freeOrd {
		if o < 0 || int(o) > MaxOrder || uint64(s)%(1<<o) != 0 {
			continue // not free, or reported above
		}
		if i := uint64(s) >> o; i >= uint64(len(a.free[o].leaf))*64 || !a.free[o].has(i) {
			vs = append(vs, audit.Violationf(auditLayer, "bitmap-agreement", uint64(s),
				"free order-%d block missing from its bitmap", o))
		}
	}
	for o := range a.free {
		fs := &a.free[o]
		for w, word := range fs.leaf {
			for ; word != 0; word &= word - 1 {
				s := (uint64(w)*64 + uint64(bits.TrailingZeros64(word))) << o
				if s >= a.totalPages || a.freeOrd[s] != int8(o) {
					vs = append(vs, audit.Violationf(auditLayer, "bitmap-agreement", s,
						"order-%d bitmap marks a block that is not free at that order", o))
				}
			}
			if sum := fs.summary[w/64]&(1<<(w%64)) != 0; sum != (fs.leaf[w] != 0) {
				vs = append(vs, audit.Violationf(auditLayer, "bitmap-agreement", uint64(w),
					"order-%d summary bit %v for leaf word %d holding %#x", o, sum, w, fs.leaf[w]))
			}
		}
		for w := 0; w < fs.lo && w < len(fs.summary); w++ {
			if fs.summary[w] != 0 {
				vs = append(vs, audit.Violationf(auditLayer, "bitmap-agreement", uint64(w),
					"order-%d summary word %d is nonzero below the scan hint %d", o, w, fs.lo))
			}
		}
	}
	// Reservations: in bounds, withdrawn from the free lists, claim
	// bitmap consistent with the claim counter.
	for hi, r := range a.reservations {
		if r.HugeIndex != hi {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-key", hi,
				"reservation stored under index %d records index %d", hi, r.HugeIndex))
		}
		start := r.Start()
		if start+mem.PagesPerHuge > a.totalPages {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-bounds", start,
				"reservation %d extends past total %#x", hi, a.totalPages))
			continue
		}
		n := 0
		for _, c := range r.claimed {
			n += bits.OnesCount64(c)
		}
		if n != r.nAllocated {
			vs = append(vs, audit.Violationf(auditLayer, "reservation-claims", start,
				"reservation %d claim bitmap holds %d pages, counter says %d",
				hi, n, r.nAllocated))
		}
		for f := start; f < start+mem.PagesPerHuge; f++ {
			if a.FrameFree(f) {
				vs = append(vs, audit.Violationf(auditLayer, "reservation-free-overlap", f,
					"frame inside reservation %d is also on the free lists (double-reserve)", hi))
				break
			}
		}
	}
	// FMFI recomputation: derive the index at HugeOrder from the free
	// map alone and compare with the incremental-counter version. A
	// drift here means a future fast path desynced counts from blocks.
	if a.freePages > 0 {
		var usable uint64
		for _, o := range a.freeOrd {
			if int(o) >= mem.HugeOrder {
				usable += uint64(1) << o
			}
		}
		recomputed := 1 - float64(usable)/float64(sum)
		tracked := a.FMFI(mem.HugeOrder)
		diff := recomputed - tracked
		if diff < 0 {
			diff = -diff
		}
		if diff > 1e-9 {
			vs = append(vs, audit.Violationf(auditLayer, "fmfi-recompute", 0,
				"FMFI from counters %.9f != FMFI from free map %.9f", tracked, recomputed))
		}
	}
	return vs
}
