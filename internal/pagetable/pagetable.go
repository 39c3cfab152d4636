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
// See DESIGN.md §7 (performance model) for the dirty-region log that
// invalidates machine-level walk caches, the AccessRef fast path for
// accessed-bit updates, and the chunked reverse map with its
// per-region counts, and DESIGN.md §7.6 for the leaf and reverse-chunk
// memos.
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
	// A caller holding an AccessRef checks it to see whether the ref
	// may have been detached.
	version uint64
	// dirty logs the 2 MiB input regions (va >> HugeShift) that
	// destructive mutations touched since the last ClearDirty, so a
	// software walk cache can drop just the translations they changed
	// (DESIGN.md §7.1). nDirty counts the logged regions; once more
	// distinct regions arrive than the log holds it saturates at
	// dirtyLogSize+1, meaning "every region", and logs nothing more.
	dirty  [dirtyLogSize]uint64
	nDirty int
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
	// revLast memoizes the chunk the last reverse-map operation used,
	// keyed by revKey (chunk index + 1; 0 means none). Fault paths and
	// compaction touch runs of neighbouring frames, so most updates
	// skip the map probe. Chunks are never removed, so the memo cannot
	// go stale.
	revLast *revChunk
	revKey  uint64
	// leaf memoizes the level-0 node of the 2 MiB input region leafKey
	// (va >> HugeShift) that the last base-page walk reached; nil means
	// none. Consecutive walks inside one region (ascending first-touch
	// runs, a region's swap-out, compaction loops) then skip the top
	// three levels. Every operation that changes a PMD child pointer
	// under an existing entry (Map2M dropping an empty child, Collapse,
	// Split) clears it, so the memo is always the node a fresh walk
	// reaches (audit rule "leaf-memo").
	leaf    *node
	leafKey uint64
	// spare holds level-0 nodes that Collapse and Map2M detached, for
	// Split and the next leaf allocation to reuse instead of allocating
	// (DESIGN.md §7.6). No spare is reachable from the root or is the
	// leaf memo (audit rule "spare-detached"); newChild resets the one
	// it takes to what a new node holds.
	spare  [spareLeaves]*node
	nSpare int
}

// spareLeaves caps the detached leaves a table keeps for reuse. A
// tick's demotions and re-collapses cycle through a handful of leaves;
// a full stack lets further detached leaves go to the collector.
const spareLeaves = 16

// dirtyLogSize is how many distinct regions the destructive-mutation
// log holds before it saturates. A tick's compaction and reclaim
// touch a few dozen regions; a workload restart or a large unmap
// saturates it, which costs one whole-cache flush.
const dirtyLogSize = 128

// revChunkBits sizes reverse-map chunks: 2^12 frames (16 MiB of
// mapped memory) per chunk.
const revChunkBits = 12

// revChunkRegions is the number of 2 MiB output regions per chunk.
const revChunkRegions = 1 << revChunkBits / mem.PagesPerHuge

// revChunk is one window of the reverse map. va holds va+1 per frame;
// 0 marks no entry (VA 0 is legitimate — the EPT input space starts at
// guest physical address 0 — hence the +1 bias). n counts the set
// entries of each 2 MiB output region of the window, the per-region
// base-page presence MHPS reads (audit rule "rmap-region-count"). The
// counts live beside the 32 KiB array, not in it, so the array keeps
// its allocation size class.
type revChunk struct {
	va *[1 << revChunkBits]uint64
	n  [revChunkRegions]uint16
}

// New returns an empty table.
func New() *Table {
	return &Table{root: &node{}, reverse: make(map[uint64]*revChunk)}
}

// pushLeaf keeps a detached level-0 node for reuse, or drops it when
// the spare stack is full.
func (t *Table) pushLeaf(n *node) {
	if t.nSpare < spareLeaves {
		t.spare[t.nSpare] = n
		t.nSpare++
	}
}

// Version returns the destructive-mutation counter. Any translation
// resolved before the counter changed may since have been unmapped,
// resized, or remapped; translations cached while it is unchanged are
// guaranteed still valid.
func (t *Table) Version() uint64 { return t.version }

// mutated records one destructive mutation of the 2 MiB input region
// holding va: it bumps version and logs the region, skipping a repeat
// of the last logged one.
func (t *Table) mutated(va uint64) {
	t.version++
	r := va >> mem.HugeShift
	switch n := t.nDirty; {
	case n > dirtyLogSize || n > 0 && t.dirty[n-1] == r:
		// Saturated, or a repeat of the last logged region.
	case n == dirtyLogSize:
		t.nDirty++
	default:
		t.dirty[n] = r
		t.nDirty++
	}
}

// Clean reports whether no destructive mutation happened since the
// last ClearDirty.
func (t *Table) Clean() bool { return t.nDirty == 0 }

// Dirty returns the 2 MiB input regions (va >> HugeShift) that
// destructive mutations touched since the last ClearDirty, possibly
// with repeats, or all = true when more distinct regions were touched
// than the log holds. The slice aliases the log: read it before the
// next mutation. The log has one reader, the VM walk cache that owns
// the table's translations.
func (t *Table) Dirty() (regions []uint64, all bool) {
	if t.nDirty > dirtyLogSize {
		return nil, true
	}
	return t.dirty[:t.nDirty], false
}

// ClearDirty empties the destructive-mutation log.
func (t *Table) ClearDirty() { t.nDirty = 0 }

// RegionBasePages returns how many base mappings point into the 2 MiB
// output region (frames region*512 through region*512+511), from the
// reverse map's per-region counts.
func (t *Table) RegionBasePages(region uint64) int {
	c := t.revChunkOf(region*mem.PagesPerHuge, false)
	if c == nil {
		return 0
	}
	return int(c.n[region%revChunkRegions])
}

// RegionReverse calls fn, in ascending frame order, for every base
// mapping that points into the 2 MiB output region, read from the
// reverse map's 512 entries for it.
func (t *Table) RegionReverse(region uint64, fn func(m Mapping)) {
	first := region * mem.PagesPerHuge
	c := t.revChunkOf(first, false)
	if c == nil || c.n[region%revChunkRegions] == 0 {
		return
	}
	off := first & (1<<revChunkBits - 1)
	for i, v := range c.va[off : off+mem.PagesPerHuge] {
		if v != 0 {
			fn(Mapping{VA: v - 1, Frame: first + uint64(i), Kind: mem.Base})
		}
	}
}

// ReverseLookup returns the VA whose base mapping points at the frame.
func (t *Table) ReverseLookup(frame uint64) (uint64, bool) {
	c := t.revChunkOf(frame, false)
	if c == nil {
		return 0, false
	}
	v := c.va[frame&(1<<revChunkBits-1)]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// revChunkOf returns the reverse-map chunk holding frame's entry
// through the revLast memo, creating the chunk when create is set (nil
// when it is absent and create is not).
func (t *Table) revChunkOf(frame uint64, create bool) *revChunk {
	key := frame>>revChunkBits + 1
	if key == t.revKey {
		return t.revLast
	}
	c := t.reverse[key-1]
	if c == nil {
		if !create {
			return nil
		}
		c = &revChunk{va: new([1 << revChunkBits]uint64)}
		t.reverse[key-1] = c
	}
	t.revLast, t.revKey = c, key
	return c
}

// reverseSet records frame -> va.
func (t *Table) reverseSet(frame, va uint64) {
	c, i := t.revChunkOf(frame, true), frame&(1<<revChunkBits-1)
	if c.va[i] == 0 {
		c.n[i/mem.PagesPerHuge]++
	}
	c.va[i] = va + 1
}

// reverseRegion points the reverse entries of the 512 frames of the
// huge-aligned block at base at the pages of the 2 MiB region at hva
// (Split), or clears them when set is false (Collapse): one chunk
// lookup and one count store for the whole region.
func (t *Table) reverseRegion(base, hva uint64, set bool) {
	c := t.revChunkOf(base, set)
	if c == nil {
		return
	}
	off := base & (1<<revChunkBits - 1)
	es := c.va[off : off+mem.PagesPerHuge]
	if !set {
		clear(es)
		c.n[off/mem.PagesPerHuge] = 0
		return
	}
	for i := range es {
		es[i] = hva + uint64(i)*mem.PageSize + 1
	}
	c.n[off/mem.PagesPerHuge] = mem.PagesPerHuge
}

// reverseClear removes the frame's reverse entry if present.
func (t *Table) reverseClear(frame uint64) {
	if c, i := t.revChunkOf(frame, false), frame&(1<<revChunkBits-1); c != nil && c.va[i] != 0 {
		c.va[i] = 0
		c.n[i/mem.PagesPerHuge]--
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
// if a huge leaf blocks the descent (blocked is then true). Base-page
// walks go through the leaf memo.
func (t *Table) walk(va uint64, targetLevel int, alloc bool) (n *node, blocked bool) {
	if targetLevel == 0 && t.leaf != nil && va>>mem.HugeShift == t.leafKey {
		return t.leaf, false
	}
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
			child = t.newChild(level)
			n.children[idx] = child
			n.live++
		}
		n = child
	}
	if targetLevel == 0 {
		t.leaf, t.leafKey = n, va>>mem.HugeShift
	}
	return n, false
}

// newChild returns an empty node to hang below a node of the given
// level. Below the PMD level that is a spare leaf when one is kept,
// reset to exactly what a new node holds: no present entry, frame 0
// and no accessed bit everywhere, live 0.
func (t *Table) newChild(level int) *node {
	if level != hugeLevel || t.nSpare == 0 {
		return &node{}
	}
	t.nSpare--
	n := t.spare[t.nSpare]
	t.spare[t.nSpare] = nil
	*n = node{}
	return n
}

// Map4K installs a base mapping from the page containing va to the
// given output frame and returns the AccessRef of the entry it wrote.
func (t *Table) Map4K(va uint64, frame uint64) (AccessRef, error) {
	pte, blocked := t.walk(va, 0, true)
	if blocked {
		return AccessRef{}, fmt.Errorf("%w: huge mapping covers %#x", ErrMapped, va)
	}
	idx := index(va, 0)
	if pte.present[idx] {
		return AccessRef{}, fmt.Errorf("%w: %#x", ErrMapped, va)
	}
	pte.present[idx] = true
	pte.accessed[idx] = false
	pte.frame[idx] = frame
	pte.live++
	t.mapped4K++
	t.reverseSet(frame, va&^(mem.PageSize-1))
	return AccessRef{bits: &pte.accessed, idx: int32(idx)}, nil
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
	if pt := pmd.children[idx]; pt != nil {
		pmd.children[idx] = nil
		pmd.live--
		t.leaf = nil // the dropped child may be the memoized leaf
		t.pushLeaf(pt)
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
	n, _, frame, kind := t.entry(va)
	return frame, kind, n != nil
}

// entry finds the leaf entry translating va: the node holding it, its
// index there, the output frame of va's page, and the mapping kind (a
// PMD entry for huge mappings, a PTE otherwise). n is nil, and frame
// 0, when va is unmapped. Base-page lookups go through the leaf memo
// and refresh it. Every translation path shares this one descent, and
// its callers are small enough to inline, so a lookup costs one call.
func (t *Table) entry(va uint64) (n *node, idx int, frame uint64, kind mem.PageSizeKind) {
	key := va >> mem.HugeShift
	if n = t.leaf; n == nil || key != t.leafKey {
		n = t.root
		for level := numLevels - 1; level > hugeLevel; level-- {
			if n = n.children[index(va, level)]; n == nil {
				return nil, 0, 0, mem.Base
			}
		}
		idx = index(va, hugeLevel)
		if n.present[idx] && n.huge[idx] {
			return n, idx, n.frame[idx] + va>>mem.PageShift&(mem.PagesPerHuge-1), mem.Huge
		}
		if n = n.children[idx]; n == nil {
			return nil, 0, 0, mem.Base
		}
		t.leaf, t.leafKey = n, key
	}
	if idx = index(va, 0); !n.present[idx] {
		return nil, 0, 0, mem.Base
	}
	return n, idx, n.frame[idx], mem.Base
}

// AccessRef is a stable reference to one base PTE's accessed bit,
// letting a caller that already walked to the leaf set the bit again
// without re-walking the radix tree. LookupRef and Map4K hand them
// out. A reference is only meaningful while Version() is unchanged
// from the call that produced it: any destructive mutation may have
// detached the node it points into. The zero AccessRef (returned for
// huge mappings, whose translated accesses set no base-PTE bit) is a
// valid no-op.
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
// mappings). The ref is valid until the table's Version changes.
func (t *Table) LookupRef(va uint64) (frame uint64, kind mem.PageSizeKind, ref AccessRef, ok bool) {
	n, idx, frame, kind := t.entry(va)
	if n != nil && kind == mem.Base {
		ref = AccessRef{bits: &n.accessed, idx: int32(idx)}
	}
	return frame, kind, ref, n != nil
}

// LookupHugeRegion reports on the 2 MiB region containing va: whether
// it is mapped huge (and its huge frame base), or how many base pages
// are mapped within it.
func (t *Table) LookupHugeRegion(va uint64) (hugeFrame uint64, isHuge bool, basePages int) {
	pmd, _ := t.walk(va, hugeLevel, false)
	if pmd == nil {
		return 0, false, 0
	}
	idx := index(va, hugeLevel)
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
	pte, idx, frame, kind := t.entry(va)
	if kind == mem.Huge {
		return 0, ErrWrongSize
	}
	if pte == nil {
		return 0, ErrNotMapped
	}
	pte.present[idx] = false
	pte.frame[idx] = 0
	pte.live--
	t.mapped4K--
	t.mutated(va)
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
	t.mutated(hva)
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
	t.pushLeaf(pmd.children[idx])
	pmd.children[idx] = nil
	t.leaf = nil
	pmd.present[idx] = true
	pmd.huge[idx] = true
	pmd.frame[idx] = info.Frame
	// live: child pointer replaced by leaf -> net 0 change for pmd.
	t.mapped4K -= mem.PagesPerHuge
	t.mapped2M++
	t.mutated(hva)
	t.reverseRegion(info.Frame, hva, false)
	return nil
}

// Remap4K changes the output frame of an existing base mapping (page
// migration). Returns the old frame.
func (t *Table) Remap4K(va uint64, newFrame uint64) (uint64, error) {
	pte, idx, old, kind := t.entry(va)
	if kind == mem.Huge {
		return 0, fmt.Errorf("%w: %#x is huge-mapped", ErrWrongSize, va)
	}
	if pte == nil {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	pte.frame[idx] = newFrame
	t.mutated(va)
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
	pt := t.newChild(hugeLevel)
	for i := 0; i < entriesPerNode; i++ {
		pt.present[i] = true
		pt.frame[i] = base + uint64(i)
	}
	t.reverseRegion(base, hva, true)
	pt.live = entriesPerNode
	pmd.present[idx] = false
	pmd.huge[idx] = false
	pmd.frame[idx] = 0
	pmd.children[idx] = pt
	t.leaf = nil
	t.mapped2M--
	t.mapped4K += mem.PagesPerHuge
	t.mutated(hva)
	return nil
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

// ScanRegions calls fn, in ascending order, with the base VA of every
// 2 MiB region that holds a mapping: a huge entry, or a leaf node with
// a live entry (Unmap4K leaves emptied leaf nodes in place, and those
// do not count). It stops at the PMD level and never visits leaf
// entries. Returning false stops the scan.
func (t *Table) ScanRegions(fn func(va uint64) bool) {
	t.scanRegions(t.root, 0, numLevels-1, fn)
}

func (t *Table) scanRegions(n *node, vaBase uint64, level int, fn func(va uint64) bool) bool {
	span := uint64(mem.PageSize) << (9 * uint(level))
	for i := 0; i < entriesPerNode; i++ {
		child := n.children[i]
		if level == hugeLevel {
			if (n.present[i] && n.huge[i] || child != nil && child.live > 0) && !fn(vaBase+uint64(i)*span) {
				return false
			}
			continue
		}
		if child != nil && child.live > 0 && !t.scanRegions(child, vaBase+uint64(i)*span, level-1, fn) {
			return false
		}
	}
	return true
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
	pte, idx, _, kind := t.entry(va)
	return pte != nil && kind == mem.Base && pte.accessed[idx]
}

// ClearAccessed resets the accessed bit of the base mapping for the
// page containing va (the periodic A-bit harvesting OSes do).
func (t *Table) ClearAccessed(va uint64) {
	if pte, idx, _, kind := t.entry(va); pte != nil && kind == mem.Base {
		pte.accessed[idx] = false
	}
}

// ScanRange calls fn, in ascending VA order, for every mapping that
// overlaps [start, end), including a huge mapping that begins before
// start. It descends straight to the range. Returning false stops the
// scan.
func (t *Table) ScanRange(start, end uint64, fn func(m Mapping) bool) {
	t.scan(t.root, 0, numLevels-1, start, end, 0, fn)
}
