// Package pagetable implements an x86-64 style 4-level radix page
// table supporting 4 KiB base and 2 MiB huge leaf entries. The same
// structure serves as a guest process page table (GVA -> GPA) and as a
// VM page table / EPT (GPA -> HPA); the machine layer decides the
// interpretation of the input and output addresses.
//
// The table supports the operations the paper's systems rely on:
//
//   - demand mapping at either page size (Map4K / Map2M);
//   - in-place collapse of 512 contiguous, huge-aligned base mappings
//     into one huge mapping — the cheap promotion path Gemini's EMA
//     engineers for ("directly promoted into a huge page without any
//     page migration", §3);
//   - splitting a huge mapping back into base mappings;
//   - full scans, used by the misaligned huge page scanner (MHPS) to
//     find huge pages at each layer (§4).
//
// Addresses are uint64 byte addresses within a 48-bit space, as on
// x86-64 with four 9-bit index levels below the page offset.
//
// See DESIGN.md §7 (performance model) for the version counter that
// invalidates machine-level walk caches, the AccessRef fast path for
// accessed-bit updates, and the chunked reverse map.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Radix geometry: each level indexes 9 bits.
const (
	entriesPerNode = 512
	// Levels of the radix tree. Level 3 is the root (PGD), level 0
	// holds 4 KiB PTEs. Level 1 (PMD) entries may be huge leaves.
	numLevels = 4
	hugeLevel = 1
	// WalkStepsBase is the number of page-table reads to reach a 4 KiB
	// PTE (PGD, PUD, PMD, PTE).
	WalkStepsBase = 4
	// WalkStepsHuge is the number of reads to reach a 2 MiB PMD leaf.
	WalkStepsHuge = 3
)

// Errors returned by table operations.
var (
	ErrMapped         = errors.New("pagetable: address already mapped")
	ErrNotMapped      = errors.New("pagetable: address not mapped")
	ErrMisaligned     = errors.New("pagetable: address not aligned for operation")
	ErrNotCollapsible = errors.New("pagetable: region not contiguous/complete for in-place collapse")
	ErrWrongSize      = errors.New("pagetable: mapping has different page size")
)

// Mapping describes one translation discovered by a scan or lookup.
type Mapping struct {
	// VA is the input (virtual) byte address of the mapping's start.
	VA uint64
	// Frame is the first output frame (4 KiB frame number).
	Frame uint64
	// Kind is the translation size.
	Kind mem.PageSizeKind
}

// node is one radix level: 512 entries that are either child pointers
// (interior) or leaves.
type node struct {
	children [entriesPerNode]*node
	// leaf entries; meaningful only at levels 0 (base) and 1 (huge).
	present  [entriesPerNode]bool
	huge     [entriesPerNode]bool
	accessed [entriesPerNode]bool
	frame    [entriesPerNode]uint64
	// live counts present leaves or non-nil children for fast pruning.
	live int
}

// Table is a 4-level page table. The zero value is not usable; call New.
type Table struct {
	root     *node
	mapped4K uint64
	mapped2M uint64
	// version counts destructive mutations: operations that remove or
	// change an existing translation (Unmap4K, Unmap2M, Collapse,
	// Split, Remap4K). Pure additions (Map4K, Map2M) do not bump it,
	// because they cannot affect any translation that already resolved.
	// Software walk caches key their validity off this counter; see
	// DESIGN.md §7 (performance model).
	version uint64
	// reverse maps output frame -> input VA for base mappings, the
	// "movable page" lookup memory compaction needs. It is chunked:
	// a small map from frame/revChunkSize to flat per-chunk arrays of
	// va+1 (0 = no entry). Fault-path mapping mutations update it once
	// per fault, and a flat per-frame map grew hot there purely from
	// hashing and incremental rehash; the chunk map stays tiny (one
	// entry per 4096 frames), so each update is one small-map probe
	// plus an indexed store, while sparse frame ranges (exercised by
	// the fuzzers) cost one 32 KiB chunk per touched window instead of
	// an impossible frame-indexed flat array.
	reverse map[uint64]*revChunk
}

// revChunkBits sizes reverse-map chunks: 2^12 frames (16 MiB of
// mapped memory) per chunk.
const revChunkBits = 12

// revChunk holds va+1 per frame within one chunk; 0 marks no entry
// (VA 0 is legitimate — the EPT input space starts at guest physical
// address 0 — hence the +1 bias).
type revChunk [1 << revChunkBits]uint64

// New returns an empty table.
func New() *Table {
	return &Table{root: &node{}, reverse: make(map[uint64]*revChunk)}
}

// Version returns the destructive-mutation counter. Any translation
// resolved before the counter changed may since have been unmapped,
// resized, or remapped; translations cached while it is unchanged are
// guaranteed still valid.
func (t *Table) Version() uint64 { return t.version }

// ReverseLookup returns the VA whose base mapping points at the frame.
func (t *Table) ReverseLookup(frame uint64) (uint64, bool) {
	c := t.reverse[frame>>revChunkBits]
	if c == nil {
		return 0, false
	}
	v := c[frame&(1<<revChunkBits-1)]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// reverseSet records frame -> va.
func (t *Table) reverseSet(frame, va uint64) {
	c := t.reverse[frame>>revChunkBits]
	if c == nil {
		c = new(revChunk)
		t.reverse[frame>>revChunkBits] = c
	}
	c[frame&(1<<revChunkBits-1)] = va + 1
}

// reverseClear removes the frame's reverse entry if present.
func (t *Table) reverseClear(frame uint64) {
	if c := t.reverse[frame>>revChunkBits]; c != nil {
		c[frame&(1<<revChunkBits-1)] = 0
	}
}

// Mapped4K returns the number of live 4 KiB mappings.
func (t *Table) Mapped4K() uint64 { return t.mapped4K }

// Mapped2M returns the number of live 2 MiB mappings.
func (t *Table) Mapped2M() uint64 { return t.mapped2M }

// MappedBytes returns the total bytes of mapped memory.
func (t *Table) MappedBytes() uint64 {
	return t.mapped4K*mem.PageSize + t.mapped2M*mem.HugeSize
}

// index returns the 9-bit index of va at the given level.
func index(va uint64, level int) int {
	return int(va >> (mem.PageShift + 9*uint(level)) & (entriesPerNode - 1))
}

// walk descends to the node at the target level, optionally allocating
// missing interior nodes. Returns nil if absent and alloc is false, or
// if a huge leaf blocks the descent (blocked is then true).
func (t *Table) walk(va uint64, targetLevel int, alloc bool) (n *node, blocked bool) {
	n = t.root
	for level := numLevels - 1; level > targetLevel; level-- {
		idx := index(va, level)
		if level == hugeLevel && n.present[idx] && n.huge[idx] {
			return nil, true
		}
		child := n.children[idx]
		if child == nil {
			if !alloc {
				return nil, false
			}
			child = &node{}
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	return n, false
}

// Map4K installs a base mapping from the page containing va to the
// given output frame.
func (t *Table) Map4K(va uint64, frame uint64) error {
	pte, blocked := t.walk(va, 0, true)
	if blocked {
		return fmt.Errorf("%w: huge mapping covers %#x", ErrMapped, va)
	}
	idx := index(va, 0)
	if pte.present[idx] {
		return fmt.Errorf("%w: %#x", ErrMapped, va)
	}
	pte.present[idx] = true
	pte.accessed[idx] = false
	pte.frame[idx] = frame
	pte.live++
	t.mapped4K++
	t.reverseSet(frame, va&^(mem.PageSize-1))
	return nil
}

// Map2M installs a huge mapping. va must be 2 MiB aligned and frame
// must be huge-aligned (multiple of 512). Fails if any base mapping
// already exists under the region.
func (t *Table) Map2M(va uint64, frame uint64) error {
	if va%mem.HugeSize != 0 {
		return fmt.Errorf("%w: va %#x", ErrMisaligned, va)
	}
	if frame%mem.PagesPerHuge != 0 {
		return fmt.Errorf("%w: frame %#x", ErrMisaligned, frame)
	}
	pmd, blocked := t.walk(va, hugeLevel, true)
	if blocked {
		return fmt.Errorf("%w: huge mapping covers %#x", ErrMapped, va)
	}
	idx := index(va, hugeLevel)
	if pmd.present[idx] {
		return fmt.Errorf("%w: %#x already huge-mapped", ErrMapped, va)
	}
	if pmd.children[idx] != nil && pmd.children[idx].live > 0 {
		return fmt.Errorf("%w: base mappings exist under %#x", ErrMapped, va)
	}
	if pmd.children[idx] != nil {
		pmd.children[idx] = nil
		pmd.live--
	}
	pmd.present[idx] = true
	pmd.huge[idx] = true
	pmd.frame[idx] = frame
	pmd.live++
	t.mapped2M++
	return nil
}

// Lookup translates va. It returns the output 4 KiB frame for the page
// containing va, the mapping kind, and whether a mapping exists.
func (t *Table) Lookup(va uint64) (frame uint64, kind mem.PageSizeKind, ok bool) {
	n := t.root
	for level := numLevels - 1; level >= 1; level-- {
		idx := index(va, level)
		if level == hugeLevel && n.present[idx] && n.huge[idx] {
			base := n.frame[idx]
			offsetPages := va >> mem.PageShift & (mem.PagesPerHuge - 1)
			return base + offsetPages, mem.Huge, true
		}
		child := n.children[idx]
		if child == nil {
			return 0, mem.Base, false
		}
		n = child
	}
	idx := index(va, 0)
	if !n.present[idx] {
		return 0, mem.Base, false
	}
	return n.frame[idx], mem.Base, true
}

// AccessRef is a stable reference to one base PTE's accessed bit,
// letting a caller that already walked to the leaf set the bit again
// without re-walking the radix tree. A reference is only meaningful
// while Version() is unchanged from the LookupRef that produced it:
// any destructive mutation may have detached the node it points into.
// The zero AccessRef (returned for huge mappings, whose translated
// accesses do not set a base-PTE bit) is a valid no-op.
type AccessRef struct {
	bits *[entriesPerNode]bool
	idx  int32
}

// Mark sets the referenced accessed bit; no-op for the zero ref.
func (r AccessRef) Mark() {
	if r.bits != nil {
		r.bits[r.idx] = true
	}
}

// LookupRef translates va like Lookup and additionally returns an
// AccessRef for the mapping's accessed bit (the zero ref for huge
// mappings, matching MarkAccessed's no-op on them). The ref is valid
// until the table's Version changes.
func (t *Table) LookupRef(va uint64) (frame uint64, kind mem.PageSizeKind, ref AccessRef, ok bool) {
	n := t.root
	for level := numLevels - 1; level >= 1; level-- {
		idx := index(va, level)
		if level == hugeLevel && n.present[idx] && n.huge[idx] {
			base := n.frame[idx]
			offsetPages := va >> mem.PageShift & (mem.PagesPerHuge - 1)
			return base + offsetPages, mem.Huge, AccessRef{}, true
		}
		child := n.children[idx]
		if child == nil {
			return 0, mem.Base, AccessRef{}, false
		}
		n = child
	}
	idx := index(va, 0)
	if !n.present[idx] {
		return 0, mem.Base, AccessRef{}, false
	}
	return n.frame[idx], mem.Base, AccessRef{bits: &n.accessed, idx: int32(idx)}, true
}

// MarkAccessed sets the accessed bit of the base mapping for the page
// containing va, as the hardware walker does on a translated access.
// No-op for huge or absent mappings.
func (t *Table) MarkAccessed(va uint64) {
	pte, _ := t.walk(va, 0, false)
	if pte == nil {
		return
	}
	idx := index(va, 0)
	if pte.present[idx] {
		pte.accessed[idx] = true
	}
}

// LookupHugeRegion reports on the 2 MiB region containing va: whether
// it is mapped huge (and its huge frame base), or how many base pages
// are mapped within it.
func (t *Table) LookupHugeRegion(va uint64) (hugeFrame uint64, isHuge bool, basePages int) {
	hva := va &^ uint64(mem.HugeSize-1)
	pmd, _ := t.walk(hva, hugeLevel, false)
	if pmd == nil {
		// Either absent or blocked by a huge page above hugeLevel
		// (cannot happen: huge leaves only at hugeLevel). Re-walk to
		// distinguish.
		n := t.root
		for level := numLevels - 1; level > hugeLevel; level-- {
			idx := index(hva, level)
			if n.children[idx] == nil {
				return 0, false, 0
			}
			n = n.children[idx]
		}
		pmd = n
	}
	idx := index(hva, hugeLevel)
	if pmd.present[idx] && pmd.huge[idx] {
		return pmd.frame[idx], true, 0
	}
	pt := pmd.children[idx]
	if pt == nil {
		return 0, false, 0
	}
	return 0, false, pt.live
}

// Unmap4K removes the base mapping for the page containing va and
// returns the frame it pointed to. Its errors are the bare ErrWrongSize
// (va is huge-mapped) and ErrNotMapped sentinels, without the address:
// reclaim probes unmapped pages routinely and discards the error, so
// the miss must not allocate. Callers that report one add va.
func (t *Table) Unmap4K(va uint64) (uint64, error) {
	pte, blocked := t.walk(va, 0, false)
	if blocked {
		return 0, ErrWrongSize
	}
	if pte == nil {
		return 0, ErrNotMapped
	}
	idx := index(va, 0)
	if !pte.present[idx] {
		return 0, ErrNotMapped
	}
	frame := pte.frame[idx]
	pte.present[idx] = false
	pte.frame[idx] = 0
	pte.live--
	t.mapped4K--
	t.version++
	t.reverseClear(frame)
	return frame, nil
}

// Unmap2M removes the huge mapping at the 2 MiB region containing va
// and returns its huge frame base.
func (t *Table) Unmap2M(va uint64) (uint64, error) {
	hva := va &^ uint64(mem.HugeSize-1)
	pmd, _ := t.walk(hva, hugeLevel, false)
	if pmd == nil {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	idx := index(hva, hugeLevel)
	if !pmd.present[idx] || !pmd.huge[idx] {
		return 0, fmt.Errorf("%w: %#x not huge-mapped", ErrNotMapped, va)
	}
	frame := pmd.frame[idx]
	pmd.present[idx] = false
	pmd.huge[idx] = false
	pmd.frame[idx] = 0
	pmd.live--
	t.mapped2M--
	t.version++
	return frame, nil
}

// CollapseInfo describes the promotability of one 2 MiB region.
type CollapseInfo struct {
	// Present is the number of mapped base pages in the region.
	Present int
	// Contiguous reports whether the present pages all map to
	// frame(base)+i for a huge-aligned base — i.e. the region can be
	// promoted in place without migration.
	Contiguous bool
	// Frame is the candidate huge frame base (valid when Contiguous
	// and Present > 0).
	Frame uint64
}

// InspectCollapse analyses the 2 MiB region containing va for in-place
// promotability.
func (t *Table) InspectCollapse(va uint64) CollapseInfo {
	hva := va &^ uint64(mem.HugeSize-1)
	pmd, _ := t.walk(hva, hugeLevel, false)
	if pmd == nil {
		return CollapseInfo{Contiguous: true}
	}
	idx := index(hva, hugeLevel)
	if pmd.present[idx] && pmd.huge[idx] {
		return CollapseInfo{Present: mem.PagesPerHuge, Contiguous: true, Frame: pmd.frame[idx]}
	}
	pt := pmd.children[idx]
	if pt == nil || pt.live == 0 {
		return CollapseInfo{Contiguous: true}
	}
	info := CollapseInfo{Present: pt.live, Contiguous: true}
	var base uint64
	haveBase := false
	for i := 0; i < entriesPerNode; i++ {
		if !pt.present[i] {
			continue
		}
		want := pt.frame[i] - uint64(i)
		if !haveBase {
			base = want
			haveBase = true
			if base%mem.PagesPerHuge != 0 || pt.frame[i] < uint64(i) {
				info.Contiguous = false
			}
		} else if want != base || pt.frame[i] < uint64(i) {
			info.Contiguous = false
		}
	}
	info.Frame = base
	return info
}

// Collapse promotes the 2 MiB region containing va in place: all 512
// base pages must be present, physically contiguous, and huge-aligned.
// On success the 512 PTEs are replaced by one huge PMD entry.
func (t *Table) Collapse(va uint64) error {
	info := t.InspectCollapse(va)
	if info.Present != mem.PagesPerHuge || !info.Contiguous {
		return fmt.Errorf("%w: present=%d contiguous=%v",
			ErrNotCollapsible, info.Present, info.Contiguous)
	}
	hva := va &^ uint64(mem.HugeSize-1)
	pmd, _ := t.walk(hva, hugeLevel, false)
	idx := index(hva, hugeLevel)
	if pmd.present[idx] && pmd.huge[idx] {
		return nil // already huge
	}
	pmd.children[idx] = nil
	pmd.present[idx] = true
	pmd.huge[idx] = true
	pmd.frame[idx] = info.Frame
	// live: child pointer replaced by leaf -> net 0 change for pmd.
	t.mapped4K -= mem.PagesPerHuge
	t.mapped2M++
	t.version++
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		t.reverseClear(info.Frame + i)
	}
	return nil
}

// Remap4K changes the output frame of an existing base mapping (page
// migration). Returns the old frame.
func (t *Table) Remap4K(va uint64, newFrame uint64) (uint64, error) {
	pte, blocked := t.walk(va, 0, false)
	if blocked {
		return 0, fmt.Errorf("%w: %#x is huge-mapped", ErrWrongSize, va)
	}
	if pte == nil {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	idx := index(va, 0)
	if !pte.present[idx] {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	old := pte.frame[idx]
	pte.frame[idx] = newFrame
	t.version++
	t.reverseClear(old)
	t.reverseSet(newFrame, va&^(mem.PageSize-1))
	return old, nil
}

// Split demotes the huge mapping at the region containing va into 512
// base mappings to the same frames.
func (t *Table) Split(va uint64) error {
	hva := va &^ uint64(mem.HugeSize-1)
	pmd, _ := t.walk(hva, hugeLevel, false)
	if pmd == nil {
		return fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	idx := index(hva, hugeLevel)
	if !pmd.present[idx] || !pmd.huge[idx] {
		return fmt.Errorf("%w: %#x not huge-mapped", ErrNotMapped, va)
	}
	base := pmd.frame[idx]
	pt := &node{}
	for i := 0; i < entriesPerNode; i++ {
		pt.present[i] = true
		pt.frame[i] = base + uint64(i)
		t.reverseSet(base+uint64(i), hva+uint64(i)*mem.PageSize)
	}
	pt.live = entriesPerNode
	pmd.present[idx] = false
	pmd.huge[idx] = false
	pmd.frame[idx] = 0
	pmd.children[idx] = pt
	t.mapped2M--
	t.mapped4K += mem.PagesPerHuge
	t.version++
	return nil
}

// WalkSteps returns the number of page-table reads a hardware walker
// performs to translate va with this table: fewer for huge mappings
// (their PTE sits one level higher). Returns WalkStepsBase for
// unmapped addresses (the walker discovers absence at the bottom).
func (t *Table) WalkSteps(va uint64) int {
	_, kind, ok := t.Lookup(va)
	if ok && kind == mem.Huge {
		return WalkStepsHuge
	}
	return WalkStepsBase
}

// ScanHuge calls fn for every huge mapping in ascending VA order.
// Returning false from fn stops the scan.
func (t *Table) ScanHuge(fn func(m Mapping) bool) {
	t.scan(t.root, 0, numLevels-1, 0, ^uint64(0), hugeLevel, fn)
}

// ScanAll calls fn for every mapping (base and huge) in ascending VA
// order. Returning false stops the scan.
func (t *Table) ScanAll(fn func(m Mapping) bool) {
	t.scan(t.root, 0, numLevels-1, 0, ^uint64(0), 0, fn)
}

// scan recursively visits, in ascending VA order, the mappings under n
// that overlap [start, end): VA < end and VA+size > start. Subtrees
// that cannot hold such a mapping are skipped without being entered,
// and the scan descends no lower than minLevel (hugeLevel yields huge
// mappings only). Returns false when the visitor aborted.
func (t *Table) scan(n *node, vaBase uint64, level int, start, end uint64, minLevel int, fn func(m Mapping) bool) bool {
	span := uint64(mem.PageSize) << (9 * uint(level))
	first := 0
	if start > vaBase {
		first = int(min((start-vaBase)/span, entriesPerNode))
	}
	for i := first; i < entriesPerNode; i++ {
		va := vaBase + uint64(i)*span
		if va >= end {
			return true
		}
		if level == hugeLevel && n.present[i] && n.huge[i] {
			if !fn(Mapping{VA: va, Frame: n.frame[i], Kind: mem.Huge}) {
				return false
			}
			continue
		}
		if level == 0 {
			if n.present[i] {
				if !fn(Mapping{VA: va, Frame: n.frame[i], Kind: mem.Base}) {
					return false
				}
			}
			continue
		}
		if child := n.children[i]; child != nil && level > minLevel {
			if !t.scan(child, va, level-1, start, end, minLevel, fn) {
				return false
			}
		}
	}
	return true
}

// Accessed reports whether the base mapping for the page containing va
// has been accessed since mapping or the last ClearAccessed.
func (t *Table) Accessed(va uint64) bool {
	pte, _ := t.walk(va, 0, false)
	if pte == nil {
		return false
	}
	idx := index(va, 0)
	return pte.present[idx] && pte.accessed[idx]
}

// ClearAccessed resets the accessed bit of the base mapping for the
// page containing va (the periodic A-bit harvesting OSes do).
func (t *Table) ClearAccessed(va uint64) {
	pte, _ := t.walk(va, 0, false)
	if pte == nil {
		return
	}
	pte.accessed[index(va, 0)] = false
}

// ScanRange calls fn, in ascending VA order, for every mapping that
// overlaps [start, end), including a huge mapping that begins before
// start. It descends straight to the range. Returning false stops the
// scan.
func (t *Table) ScanRange(start, end uint64, fn func(m Mapping) bool) {
	t.scan(t.root, 0, numLevels-1, start, end, 0, fn)
}
