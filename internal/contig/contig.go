// Package contig implements the Gemini contiguity list described in §5
// of the paper: an address-sorted list of free, contiguous physical
// memory regions used to place whole VMAs so that forthcoming faults in
// the VMA land in one contiguous physical run.
//
// The list is kept sorted by starting address so that small, random
// allocations are served from the low end of physical memory without
// fragmenting large contiguous regions. Searches use the next-fit
// policy: each search resumes where the previous one left off, which
// amortises the scan across allocations (and matches the paper's
// description). When no region fits an entire VMA, the largest free
// region is chosen and the caller falls back to the sub-VMA mechanism
// for the remainder.
//
// See DESIGN.md §2 (system inventory, "Gemini contiguity list") for
// how this feeds the coordinated policy in package core.
package contig

import (
	"fmt"
	"strings"

	"repro/internal/mem"
)

// node is a doubly linked list element holding one free region.
type node struct {
	region     mem.Region
	prev, next *node
}

// List is the Gemini contiguity list. The zero value is not usable;
// call New.
type List struct {
	head, tail *node
	cursor     *node // next-fit resume point
	count      int
}

// New returns an empty contiguity list.
func New() *List { return &List{} }

// Len returns the number of regions in the list.
func (l *List) Len() int { return l.count }

// Rebuild replaces the list contents with the given regions, which must
// be sorted by start address and non-overlapping (as produced by
// buddy.(*Allocator).FreeRegionsAtLeast). The next-fit cursor resets to the
// head.
func (l *List) Rebuild(regions []mem.Region) {
	l.head, l.tail, l.cursor = nil, nil, nil
	l.count = 0
	for _, r := range regions {
		if r.Pages == 0 {
			continue
		}
		n := &node{region: r}
		if l.tail == nil {
			l.head, l.tail = n, n
		} else {
			if r.Start < l.tail.region.End() {
				panic(fmt.Sprintf("contig: Rebuild with unsorted/overlapping region %v after %v",
					r, l.tail.region))
			}
			n.prev = l.tail
			l.tail.next = n
			l.tail = n
		}
		l.count++
	}
	l.cursor = l.head
}

// Insert adds a free region, merging with adjacent regions. Used when
// memory is freed between rebuilds.
func (l *List) Insert(r mem.Region) {
	if r.Pages == 0 {
		return
	}
	// Find insertion point (first node with start >= r.Start).
	var after *node
	for n := l.head; n != nil; n = n.next {
		if n.region.Start >= r.Start {
			after = n
			break
		}
	}
	var before *node
	if after != nil {
		before = after.prev
	} else {
		before = l.tail
	}
	if (before != nil && before.region.End() > r.Start) ||
		(after != nil && r.End() > after.region.Start) {
		panic(fmt.Sprintf("contig: Insert of overlapping region %v", r))
	}
	// Merge with neighbours where adjacent.
	if before != nil && before.region.End() == r.Start {
		before.region.Pages += r.Pages
		if after != nil && before.region.End() == after.region.Start {
			before.region.Pages += after.region.Pages
			l.remove(after)
		}
		return
	}
	if after != nil && r.End() == after.region.Start {
		after.region.Start = r.Start
		after.region.Pages += r.Pages
		return
	}
	n := &node{region: r, prev: before, next: after}
	if before != nil {
		before.next = n
	} else {
		l.head = n
	}
	if after != nil {
		after.prev = n
	} else {
		l.tail = n
	}
	l.count++
	if l.cursor == nil {
		l.cursor = n
	}
}

// remove unlinks a node.
func (l *List) remove(n *node) {
	if l.cursor == n {
		l.cursor = n.next
		if l.cursor == nil {
			l.cursor = l.head
		}
	}
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	l.count--
	if l.count == 0 {
		l.cursor = nil
	}
}

// FindNextFitAligned searches for a region that holds pages frames
// starting at a multiple of align (e.g. 512 for huge alignment), using
// the next-fit policy: it starts at the cursor and wraps once. On
// success it returns the aligned start frame, carves the requested span
// out of the region, and leaves the cursor on it; a skipped prefix stays
// in the list. Returns false when no region fits.
func (l *List) FindNextFitAligned(pages, align uint64) (uint64, bool) {
	if pages == 0 || l.count == 0 || align == 0 {
		return 0, false
	}
	start := l.cursor
	if start == nil {
		start = l.head
	}
	n := start
	for {
		aligned := (n.region.Start + align - 1) / align * align
		skip := aligned - n.region.Start
		if n.region.Pages >= skip+pages {
			if skip == 0 {
				frame := n.region.Start
				n.region.Start += pages
				n.region.Pages -= pages
				l.cursor = n
				if n.region.Pages == 0 {
					l.remove(n)
				}
				return frame, true
			}
			// Split: keep the prefix, carve from the aligned point.
			suffix := mem.Region{Start: aligned + pages, Pages: n.region.Pages - skip - pages}
			n.region.Pages = skip
			l.cursor = n
			if suffix.Pages > 0 {
				l.Insert(suffix)
			}
			return aligned, true
		}
		n = n.next
		if n == nil {
			n = l.head
		}
		if n == start {
			return 0, false
		}
	}
}

// TakeLargest removes and returns up to maxPages frames from the low
// end of the largest region. Returns false when the list is empty.
func (l *List) TakeLargest(maxPages uint64) (mem.Region, bool) {
	var best *node
	for n := l.head; n != nil; n = n.next {
		if best == nil || n.region.Pages > best.region.Pages {
			best = n
		}
	}
	if best == nil || maxPages == 0 {
		return mem.Region{}, false
	}
	take := best.region.Pages
	if take > maxPages {
		take = maxPages
	}
	r := mem.Region{Start: best.region.Start, Pages: take}
	best.region.Start += take
	best.region.Pages -= take
	if best.region.Pages == 0 {
		l.remove(best)
	}
	return r, true
}

// String renders the list for debugging.
func (l *List) String() string {
	var b strings.Builder
	b.WriteString("contig[")
	for n := l.head; n != nil; n = n.next {
		if n != l.head {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v", n.region)
	}
	b.WriteByte(']')
	return b.String()
}

// CheckInvariants verifies sortedness, non-overlap, link consistency,
// the count and the cursor. GEMINI's audit (rule contig-list) runs it
// on its guest and host lists.
func (l *List) CheckInvariants() error {
	n := l.head
	var prev *node
	count := 0
	for n != nil {
		if n.prev != prev {
			return fmt.Errorf("broken prev link at %v", n.region)
		}
		if prev != nil && prev.region.End() > n.region.Start {
			return fmt.Errorf("overlap/order violation: %v then %v", prev.region, n.region)
		}
		if n.region.Pages == 0 {
			return fmt.Errorf("empty region in list at %v", n.region)
		}
		count++
		prev = n
		n = n.next
	}
	if prev != l.tail {
		return fmt.Errorf("tail mismatch")
	}
	if count != l.count {
		return fmt.Errorf("count %d != tracked %d", count, l.count)
	}
	if l.count > 0 && l.cursor == nil {
		return fmt.Errorf("nil cursor with non-empty list")
	}
	return nil
}
