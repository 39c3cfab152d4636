// Package mem defines the page geometry and the frame-range type shared
// by every layer of the virtualized-memory simulator: the base/huge page
// sizes of an x86-64 style machine (4 KiB base pages, 2 MiB huge pages),
// the translation-size kind, and Region, a run of frames.
//
// The simulator carries every address and frame number as a plain
// uint64. Addresses are byte addresses; frame numbers count 4 KiB
// frames. A "huge frame number" (the index of a 2 MiB-aligned region)
// is a frame number divided by PagesPerHuge.
//
// See DESIGN.md §2 (system inventory) for the address-space model
// shared by every layer.
package mem

import "fmt"

// Page geometry constants. They mirror x86-64: a base page is 4 KiB, a
// huge page is 2 MiB, so one huge page spans 512 base pages.
const (
	// PageShift is log2 of the base page size.
	PageShift = 12
	// PageSize is the base page size in bytes (4 KiB).
	PageSize = 1 << PageShift
	// HugeShift is log2 of the huge page size.
	HugeShift = 21
	// HugeSize is the huge page size in bytes (2 MiB).
	HugeSize = 1 << HugeShift
	// PagesPerHuge is the number of base pages covered by one huge page.
	PagesPerHuge = HugeSize / PageSize // 512
	// HugeOrder is the buddy-allocator order of a huge page
	// (2^9 base pages = 512).
	HugeOrder = 9
)

// PageSizeKind distinguishes the two supported translation sizes.
type PageSizeKind uint8

const (
	// Base is a 4 KiB translation.
	Base PageSizeKind = iota
	// Huge is a 2 MiB translation.
	Huge
)

// String returns "base" or "huge".
func (k PageSizeKind) String() string {
	switch k {
	case Base:
		return "base"
	case Huge:
		return "huge"
	default:
		return fmt.Sprintf("PageSizeKind(%d)", uint8(k))
	}
}

// Region describes a contiguous range of base frames in some physical
// address space, identified by its first frame and its length in base
// pages. It is space-agnostic: the machine layer decides whether the
// frames are guest-physical or host-physical.
type Region struct {
	Start uint64 // first frame number
	Pages uint64 // length in base pages
}

// End returns one past the last frame of the region.
func (r Region) End() uint64 { return r.Start + r.Pages }

// Contains reports whether the frame lies inside the region.
func (r Region) Contains(frame uint64) bool {
	return frame >= r.Start && frame < r.End()
}

// String formats the region as [start,end) in frames.
func (r Region) String() string {
	return fmt.Sprintf("[%#x,%#x)", r.Start, r.End())
}

// BytesToPages converts a byte count to base pages, rounding up.
func BytesToPages(b uint64) uint64 {
	return (b + PageSize - 1) / PageSize
}
