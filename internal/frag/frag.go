// Package frag fragments a buddy allocator's free memory to a target
// free memory fragmentation index (FMFI), reproducing the memory
// fragmenter program the paper's evaluation uses before each
// "fragmented" run (§6.1). It also provides a convenience probe that
// reports the fragmentation state of an allocator.
//
// The fragmenter works the way real-world fragmentation arises: it
// allocates a large population of base pages, then frees a pseudo-
// random subset, leaving free memory shattered into small blocks. The
// retained pages are returned to the caller so they can be freed later
// (or held for the lifetime of an experiment).
//
// See DESIGN.md §2 (system inventory, "fragmenter"), DESIGN.md §7.2 for
// the held-region bitmaps, and §6.2 of the paper for the methodology.
package frag

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/buddy"
	"repro/internal/mem"
)

// Report summarises the fragmentation state of an allocator.
type Report struct {
	FMFI            float64 // fragmentation index at huge-page order
	FreePages       uint64
	FreeHugeRegions uint64 // free, aligned 2 MiB candidates
	LargestOrder    int
}

// Probe returns the current fragmentation state of the allocator.
func Probe(a *buddy.Allocator) Report {
	return Report{
		FMFI:            a.FMFI(mem.HugeOrder),
		FreePages:       a.FreePages(),
		FreeHugeRegions: a.FreeHugeCandidates(),
		LargestOrder:    a.LargestFreeOrder(),
	}
}

// String renders the report.
func (r Report) String() string {
	return fmt.Sprintf("FMFI=%.3f free=%d pages hugeCandidates=%d largestOrder=%d",
		r.FMFI, r.FreePages, r.FreeHugeRegions, r.LargestOrder)
}

// Fragmenter fragments allocators and tracks the pages it holds so
// they can be released — wholesale or region by region (the pattern of
// real recovery: compaction and departing tenants free whole
// huge-page-sized regions at a time).
type Fragmenter struct {
	rng *rand.Rand
	src *stream // rng's source, drawn directly 64 page flips at a time
	a   *buddy.Allocator
	// regions lists the huge regions that hold pinned pages, in the
	// order ReleaseRegions frees them.
	regions []heldRegion
	held    int // pinned pages across regions
}

// heldRegion is one huge region's pinned pages as a 512-bit bitmap, so
// the books need no per-frame map and release frees the region in one
// buddy call.
type heldRegion struct {
	huge uint64 // huge index (frame / 512)
	bits buddy.Mask
	n    int // set bits
}

// New returns a fragmenter over the allocator, seeded deterministically.
func New(a *buddy.Allocator, seed int64) *Fragmenter {
	src := newStream(seed)
	return &Fragmenter{rng: rand.New(src), src: src, a: a}
}

// evenFrames marks the even frames of a 64-frame word.
const evenFrames = 0x5555555555555555

// HeldPages returns the number of frames the fragmenter is pinning.
func (f *Fragmenter) HeldPages() int { return f.held }

// HeldRegions returns the number of huge regions with pinned pages.
func (f *Fragmenter) HeldRegions() int { return len(f.regions) }

// FragmentTo drives the allocator's FMFI at huge order to at least the
// target by allocating base pages and freeing a scattered subset. It
// consumes at most maxConsumeFraction of total memory as pinned pages
// (fraction in (0,1]). Returns the achieved FMFI.
//
// The strategy allocates pages in 512-page batches (one huge region)
// and keeps a random ~half of each batch, freeing the rest; every
// touched huge region becomes unusable for huge allocation while
// roughly half its space remains free, which raises FMFI quickly
// without exhausting memory.
func (f *Fragmenter) FragmentTo(target float64, maxConsumeFraction float64) float64 {
	if target <= 0 {
		return f.a.FMFI(mem.HugeOrder)
	}
	if maxConsumeFraction <= 0 || maxConsumeFraction > 1 {
		maxConsumeFraction = 1
	}
	budget := uint64(float64(f.a.TotalPages()) * maxConsumeFraction)
	for f.a.FMFI(mem.HugeOrder) < target && uint64(f.held) < budget {
		// Take one whole huge-aligned block, then free alternating
		// pages inside it: each freed page is a lone order-0 block
		// that cannot merge, so the region is shattered for good
		// while half its space stays free.
		start, err := f.a.Alloc(mem.HugeOrder)
		if err != nil {
			// No order-9 block left anywhere: FMFI is 1 by definition.
			break
		}
		r := heldRegion{huge: start / mem.PagesPerHuge}
		var free buddy.Mask
		for w := range r.bits {
			// Even frames are pinned and odd ones freed, each choice
			// flipped with probability 1/8 by one draw per frame in
			// ascending order, the draw rng.Intn(8) == 0 would test.
			r.bits[w] = evenFrames ^ f.src.flips()
			free[w] = ^r.bits[w]
			r.n += bits.OnesCount64(r.bits[w])
		}
		f.a.FreeMask(r.huge, &free)
		if r.n > 0 {
			f.regions = append(f.regions, r)
			f.held += r.n
		}
	}
	// Shuffle the release order so recovered regions appear at
	// scattered addresses, as real compaction and tenant churn yield.
	f.rng.Shuffle(len(f.regions), func(i, j int) {
		f.regions[i], f.regions[j] = f.regions[j], f.regions[i]
	})
	return f.a.FMFI(mem.HugeOrder)
}

// ReleaseRegions frees every pinned page of up to n huge regions,
// modelling background compaction (or a departing tenant) recovering
// whole huge-page-sized blocks over time. Returns regions released.
func (f *Fragmenter) ReleaseRegions(n int) int {
	n = max(0, min(n, len(f.regions)))
	for i := range f.regions[:n] {
		r := &f.regions[i]
		f.a.FreeMask(r.huge, &r.bits)
		f.held -= r.n
	}
	f.regions = f.regions[n:]
	return n
}

// ReleaseAll frees every pinned page, letting memory coalesce again.
func (f *Fragmenter) ReleaseAll() {
	f.ReleaseRegions(len(f.regions))
	f.regions = nil
}
