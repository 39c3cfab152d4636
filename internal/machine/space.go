package machine

import (
	"fmt"

	"repro/internal/mem"
)

// VMA is one virtual memory area of a process (or, for the EPT layer,
// a synthetic area covering guest physical memory).
type VMA struct {
	// ID identifies the VMA within its address space.
	ID int
	// Start is the first byte address; always page aligned.
	Start uint64
	// Length is the VMA size in bytes; always a page multiple.
	Length uint64
}

// End returns one past the last byte.
func (v *VMA) End() uint64 { return v.Start + v.Length }

// Contains reports whether va lies inside the VMA.
func (v *VMA) Contains(va uint64) bool { return va >= v.Start && va < v.End() }

// Pages returns the VMA length in base pages.
func (v *VMA) Pages() uint64 { return v.Length / mem.PageSize }

// String formats the VMA.
func (v *VMA) String() string {
	return fmt.Sprintf("vma%d[%#x,%#x)", v.ID, v.Start, v.End())
}

// AddressSpace is an ordered collection of VMAs with a simple bump
// placement policy. Guest processes get one; the EPT layer gets a
// synthetic space with a single VMA spanning guest physical memory.
type AddressSpace struct {
	vmas []*VMA
	// huge is the HugeRegions listing; stale marks it out of date
	// after an MMap or Remove.
	huge   []uint64
	stale  bool
	nextID int
	// next is the bump pointer for MMap placement.
	next uint64
	// OnMMap, when non-nil, observes every new VMA after placement.
	// Segment-translation VMs hook it to charge segment-resize costs
	// on address-space growth; it stays nil everywhere else.
	OnMMap func(v *VMA)
}

// NewAddressSpace returns an empty space whose first mapping will be
// placed at base (page aligned).
func NewAddressSpace(base uint64) *AddressSpace {
	return &AddressSpace{next: base &^ uint64(mem.PageSize-1)}
}

// MMap creates a new VMA of the given size in bytes (rounded up to a
// page multiple). offsetPages shifts the start by whole pages past the
// bump pointer, letting callers model real mmap placements that are
// page- but not huge-aligned — the condition Gemini's offset
// descriptors exist to handle.
func (s *AddressSpace) MMap(bytes uint64, offsetPages uint64) *VMA {
	length := mem.BytesToPages(bytes) * mem.PageSize
	start := s.next + offsetPages*mem.PageSize
	v := &VMA{ID: s.nextID, Start: start, Length: length}
	s.nextID++
	s.vmas = append(s.vmas, v)
	// Leave an unmapped guard gap so adjacent VMAs never share a huge
	// region, as with real mmap randomization.
	s.next = start + length + 16*mem.HugeSize
	s.stale = true
	if s.OnMMap != nil {
		s.OnMMap(v)
	}
	return v
}

// Remove deletes a VMA from the space (munmap). The caller is
// responsible for unmapping its pages first.
func (s *AddressSpace) Remove(v *VMA) {
	for i, x := range s.vmas {
		if x == v {
			s.vmas = append(s.vmas[:i], s.vmas[i+1:]...)
			s.stale = true
			return
		}
	}
}

// Find returns the VMA containing va, or nil.
func (s *AddressSpace) Find(va uint64) *VMA {
	for _, v := range s.vmas {
		if v.Contains(va) {
			return v
		}
	}
	return nil
}

// VMAs returns the current areas in creation order.
func (s *AddressSpace) VMAs() []*VMA { return s.vmas }

// HugeRegions returns the 2 MiB-aligned base address of every huge
// region that lies wholly inside one VMA, in ascending order within
// each VMA. The policies' daemons list their scan candidates through
// it every tick. The listing depends only on the VMAs, so the space
// keeps it, and the first call after an MMap or Remove rebuilds it in
// place (a space no daemon scans never builds it). The slice is
// read-only, and valid until the next MMap or Remove.
func (s *AddressSpace) HugeRegions() []uint64 {
	if s.stale {
		s.relist()
	}
	return s.huge
}

// relist rebuilds the HugeRegions listing from the VMAs.
func (s *AddressSpace) relist() {
	s.stale = false
	s.huge = s.huge[:0]
	for _, v := range s.vmas {
		start := (v.Start + mem.HugeSize - 1) &^ uint64(mem.HugeSize-1)
		for va := start; va+mem.HugeSize <= v.End(); va += mem.HugeSize {
			s.huge = append(s.huge, va)
		}
	}
}
