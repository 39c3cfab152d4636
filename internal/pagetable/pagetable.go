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
// x86-64 with four 9-bit index levels below the page offset. Leaf
// entries are x86-64 PTE words: the output frame in bits 12-63 beside
// the present, accessed and page-size bits.
//
// See DESIGN.md §7 (performance model) for the dirty-region log that
// invalidates machine-level walk caches, the AccessRef fast path for
// accessed-bit updates, and the chunked reverse map with its
// per-region counts, and DESIGN.md §7.6 for the PTE word layout and
// the leaf and reverse-chunk memos.
package pagetable

import (
	"errors"
	"fmt"

	"repro/internal/mem"
)

// Radix geometry: each level indexes 9 bits. Level 3 is the root
// (PGD) and level 2 the PUD; both hold child pointers only. Level 1
// (PMD) entries are 2 MiB leaf words or pointers to level-0 leaves of
// 4 KiB PTE words.
const (
	entriesPerNode = 512
	hugeLevel      = 1
)

// PTE word layout, at the x86-64 bit positions. A word that is not
// present is 0, so a new leaf is all-zero. The model uses none of the
// hardware's other flag, protection-key or NX bits, which leaves the
// frame field bits 12-63.
const (
	pteP  = 1 << 0 // present
	pteA  = 1 << 5 // accessed (set by AccessRef.Mark)
	ptePS = 1 << 7 // page size: a 2 MiB leaf, only in PMD words

	frameShift = mem.PageShift
	flagBits   = 1<<frameShift - 1
	pteHuge    = pteP | ptePS
	// maxFrame is the largest output frame a PTE word holds.
	maxFrame = 1<<(64-frameShift) - 1
)

// hugeWord reports whether a PMD word maps a 2 MiB page.
func hugeWord(w uint64) bool { return w&pteHuge == pteHuge }

// Errors returned by table operations.
var (
	ErrMapped         = errors.New("pagetable: address already mapped")
	ErrNotMapped      = errors.New("pagetable: address not mapped")
	ErrMisaligned     = errors.New("pagetable: address not aligned for operation")
	ErrNotCollapsible = errors.New("pagetable: region not contiguous/complete for in-place collapse")
	ErrWrongSize      = errors.New("pagetable: mapping has different page size")
	ErrFrameRange     = errors.New("pagetable: frame beyond the PTE frame field")
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

// Leaf is a level-0 page-table page: 512 PTE words and no pointers, so
// the collector allocates it in a noscan size class and never scans
// it. Its live count lives in the parent PMD. Outside this package a
// leaf, which RegionLeaf hands out, is read through Frame and marked
// through Mark only.
type Leaf [entriesPerNode]uint64

// Frame returns the output frame of word i and whether it is present.
func (l *Leaf) Frame(i uint64) (frame uint64, ok bool) {
	w := l[i]
	return w >> frameShift, w&pteP != 0
}

// Mark sets word i's accessed bit; the word must be present.
func (l *Leaf) Mark(i uint64) { l[i] |= pteA }

// pmd is a level-1 node. Entry i is either a huge PTE word or a leaf,
// never both with a live entry (audit rule "partition"). leafLive[i]
// counts the present words of leaves[i], 0 when there is none; live
// counts huge words plus non-nil leaves.
type pmd struct {
	leaves   [entriesPerNode]*Leaf
	words    [entriesPerNode]uint64
	leafLive [entriesPerNode]uint16
	live     int
}

// dir is a PGD or PUD node: child pointers and a count of the non-nil
// ones.
type dir[T any] struct {
	children [entriesPerNode]*T
	live     int
}

// Table is a 4-level page table. The zero value is not usable; call New.
type Table struct {
	root     *dir[dir[pmd]]
	mapped4K uint64
	mapped2M uint64
	// version counts destructive mutations: operations that remove or
	// change an existing translation (Unmap4K, Unmap2M, Collapse,
	// Split, Remap4K), or detach a leaf (Map2M over an emptied leaf).
	// Other additions do not bump it, because they cannot affect any
	// translation that already resolved. A caller holding an AccessRef
	// checks it to see whether the ref may have been detached.
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
	// keyed by revKey (its chunk index; noChunk means none). Fault paths and
	// compaction touch runs of neighbouring frames, so most updates
	// skip the map probe. Chunks are never removed, so the memo cannot
	// go stale.
	revLast *revChunk
	revKey  uint64
	// leaf memoizes the leaf of the 2 MiB input region leafKey
	// (va >> HugeShift) that the last base-page walk reached, and
	// leafLive its count in the parent PMD; leaf nil means none.
	// Consecutive walks inside one region (ascending first-touch runs,
	// a region's swap-out, compaction loops) then skip the top three
	// levels. Every operation that changes a PMD leaf pointer under an
	// existing entry (Map2M dropping an empty leaf, Collapse, Split)
	// clears it, so the memo is always the leaf a fresh walk reaches
	// (audit rule "leaf-memo").
	leaf     *Leaf
	leafLive *uint16
	leafKey  uint64
	// spare holds leaves that Collapse and Map2M detached, for Split
	// and the next leaf allocation to reuse instead of allocating
	// (DESIGN.md §7.6). No spare is reachable from the root or is the
	// leaf memo (audit rule "spare-detached"); newLeaf zeroes the one
	// it takes, which makes it exactly a new leaf.
	spare  [spareLeaves]*Leaf
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

// noChunk is the revKey of an empty chunk memo. Frames stay below
// 2^52, so no chunk index reaches it.
const noChunk = ^uint64(0)

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
	return &Table{root: new(dir[dir[pmd]]), reverse: make(map[uint64]*revChunk), revKey: noChunk}
}

// pushLeaf keeps a detached leaf for reuse, or drops it when the spare
// stack is full.
func (t *Table) pushLeaf(l *Leaf) {
	if t.nSpare < spareLeaves {
		t.spare[t.nSpare] = l
		t.nSpare++
	}
}

// newLeaf returns an all-zero leaf: a spare when one is kept, cleared,
// or a new one.
func (t *Table) newLeaf() *Leaf {
	if t.nSpare == 0 {
		return new(Leaf)
	}
	t.nSpare--
	l := t.spare[t.nSpare]
	t.spare[t.nSpare] = nil
	*l = Leaf{}
	return l
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
	key := frame >> revChunkBits
	if key == t.revKey {
		return t.revLast
	}
	c := t.reverse[key]
	if c == nil {
		if !create {
			return nil
		}
		c = &revChunk{va: new([1 << revChunkBits]uint64)}
		t.reverse[key] = c
	}
	t.revLast, t.revKey = c, key
	return c
}

// reverseSet records frame -> va. It and reverseClear run on every
// Map4K, Unmap4K and Remap4K, and spell out revChunkOf's memo probe
// instead of calling it: that keeps each within the compiler's inlining
// budget (go build -gcflags=-m=2), so the fault path pays no call.
func (t *Table) reverseSet(frame, va uint64) {
	c := t.revLast
	if k := frame >> revChunkBits; k != t.revKey {
		if c = t.reverse[k]; c == nil {
			c = &revChunk{va: new([1 << revChunkBits]uint64)}
			t.reverse[k] = c
		}
		t.revLast, t.revKey = c, k
	}
	i := frame & (1<<revChunkBits - 1)
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
	c := t.revLast
	if k := frame >> revChunkBits; k != t.revKey {
		if c = t.reverse[k]; c == nil {
			return
		}
		t.revLast, t.revKey = c, k
	}
	if i := frame & (1<<revChunkBits - 1); c.va[i] != 0 {
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

// child returns d's child i, first hanging a new one there when it is
// absent.
func child[T any](d *dir[T], i int) *T {
	if d.children[i] == nil {
		d.children[i] = new(T)
		d.live++
	}
	return d.children[i]
}

// pmdFor returns the PMD node covering va, allocating missing PUD and
// PMD nodes.
func (t *Table) pmdFor(va uint64) *pmd {
	return child(child(t.root, index(va, 3)), index(va, 2))
}

// pmdAt returns the PMD node covering va, or nil when there is none.
func (t *Table) pmdAt(va uint64) *pmd {
	if pud := t.root.children[index(va, 3)]; pud != nil {
		return pud.children[index(va, 2)]
	}
	return nil
}

// Map4K installs a base mapping from the page containing va to the
// given output frame and returns the AccessRef of the entry it wrote.
// Base-page walks go through the leaf memo.
func (t *Table) Map4K(va uint64, frame uint64) (AccessRef, error) {
	if frame > maxFrame {
		return AccessRef{}, fmt.Errorf("%w: %#x", ErrFrameRange, frame)
	}
	l, live := t.leaf, t.leafLive
	if key := va >> mem.HugeShift; l == nil || key != t.leafKey {
		p, i := t.pmdFor(va), index(va, hugeLevel)
		if hugeWord(p.words[i]) {
			return AccessRef{}, fmt.Errorf("%w: huge mapping covers %#x", ErrMapped, va)
		}
		if p.leaves[i] == nil {
			p.leaves[i] = t.newLeaf()
			p.live++
		}
		l, live = p.leaves[i], &p.leafLive[i]
		t.leaf, t.leafLive, t.leafKey = l, live, key
	}
	w := &l[index(va, 0)]
	if *w&pteP != 0 {
		return AccessRef{}, fmt.Errorf("%w: %#x", ErrMapped, va)
	}
	*w = frame<<frameShift | pteP
	*live++
	t.mapped4K++
	t.reverseSet(frame, va&^(mem.PageSize-1))
	return AccessRef{w}, nil
}

// MapRun installs base mappings for the len(frames) ascending pages
// from va, which must lie in va's 2 MiB region and all be unmapped,
// page i to frames[i], and returns the pages' AccessRefs. It leaves
// exactly the state that Map4K page by page leaves, with one walk to
// the leaf, and changes nothing when it fails.
func (t *Table) MapRun(va uint64, frames []uint64) (RunRefs, error) {
	j := index(va, 0)
	if j+len(frames) > entriesPerNode {
		return RunRefs{}, fmt.Errorf("%w: run of %d pages at %#x leaves its region", ErrMisaligned, len(frames), va)
	}
	for _, f := range frames {
		if f > maxFrame {
			return RunRefs{}, fmt.Errorf("%w: %#x", ErrFrameRange, f)
		}
	}
	if len(frames) == 0 {
		return RunRefs{}, nil
	}
	p, i := t.pmdFor(va), index(va, hugeLevel)
	if hugeWord(p.words[i]) {
		return RunRefs{}, fmt.Errorf("%w: huge mapping covers %#x", ErrMapped, va)
	}
	if t.UnmappedRun(va, len(frames)) < len(frames) {
		return RunRefs{}, fmt.Errorf("%w: inside the run at %#x", ErrMapped, va)
	}
	l := p.leaves[i]
	if l == nil {
		l = t.newLeaf()
		p.leaves[i] = l
		p.live++
	}
	t.leaf, t.leafLive, t.leafKey = l, &p.leafLive[i], va>>mem.HugeShift
	page := va &^ (mem.PageSize - 1)
	for k, f := range frames {
		l[j+k] = f<<frameShift | pteP
		t.reverseSet(f, page+uint64(k)*mem.PageSize)
	}
	p.leafLive[i] += uint16(len(frames))
	t.mapped4K += uint64(len(frames))
	return RunRefs{l, j}, nil
}

// RunRefs addresses the PTE words of a run of base pages that MapRun
// installed, all in one leaf, so a run needs no AccessRef per page
// until one is asked for. Like an AccessRef it is meaningful only
// while the table's Version is unchanged.
type RunRefs struct {
	l     *Leaf
	first int
}

// At returns the AccessRef of the run's page i.
func (r RunRefs) At(i int) AccessRef { return AccessRef{&r.l[r.first+i]} }

// UnmappedRun returns how many of the n ascending pages from va, which
// must lie in va's 2 MiB region, come before the first mapped one.
func (t *Table) UnmappedRun(va uint64, n int) int {
	p := t.pmdAt(va)
	if p == nil {
		return n
	}
	i := index(va, hugeLevel)
	if hugeWord(p.words[i]) {
		return 0
	}
	if p.leafLive[i] == 0 {
		return n // the common first touch: an empty or absent leaf
	}
	j := index(va, 0)
	for k, w := range p.leaves[i][j : j+n] {
		if w&pteP != 0 {
			return k
		}
	}
	return n
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
	if frame > maxFrame {
		return fmt.Errorf("%w: %#x", ErrFrameRange, frame)
	}
	p, i := t.pmdFor(va), index(va, hugeLevel)
	if hugeWord(p.words[i]) {
		return fmt.Errorf("%w: %#x already huge-mapped", ErrMapped, va)
	}
	if p.leafLive[i] > 0 {
		return fmt.Errorf("%w: base mappings exist under %#x", ErrMapped, va)
	}
	if l := p.leaves[i]; l != nil {
		p.leaves[i] = nil
		p.live--
		t.leaf = nil // the dropped leaf may be the memoized one
		t.pushLeaf(l)
		// A holder of the leaf (RegionLeaf) must let go of it before
		// another region takes it from the spare stack.
		t.mutated(va)
	}
	p.words[i] = frame<<frameShift | pteHuge
	p.live++
	t.mapped2M++
	return nil
}

// Lookup translates va. It returns the output 4 KiB frame for the page
// containing va, the mapping kind, and whether a mapping exists.
func (t *Table) Lookup(va uint64) (frame uint64, kind mem.PageSizeKind, ok bool) {
	w, frame, kind := t.entry(va)
	return frame, kind, w != nil
}

// entry finds the PTE word translating va: the word (a PMD word for
// huge mappings, a leaf word otherwise), the output frame of va's
// page, and the mapping kind. w is nil, and frame 0, when va is
// unmapped. Base-page lookups go through the leaf memo and refresh it,
// so after a base hit the memo is va's leaf and leafLive its count.
// Every translation path shares this one descent, and its callers are
// small enough to inline, so a lookup costs one call.
func (t *Table) entry(va uint64) (w *uint64, frame uint64, kind mem.PageSizeKind) {
	l := t.leaf
	if key := va >> mem.HugeShift; l == nil || key != t.leafKey {
		p := t.pmdAt(va)
		if p == nil {
			return nil, 0, mem.Base
		}
		i := index(va, hugeLevel)
		if w = &p.words[i]; hugeWord(*w) {
			return w, *w>>frameShift + va>>mem.PageShift&(mem.PagesPerHuge-1), mem.Huge
		}
		if l = p.leaves[i]; l == nil {
			return nil, 0, mem.Base
		}
		t.leaf, t.leafLive, t.leafKey = l, &p.leafLive[i], key
	}
	if w = &l[index(va, 0)]; *w&pteP == 0 {
		return nil, 0, mem.Base
	}
	return w, *w >> frameShift, mem.Base
}

// AccessRef is a stable reference to one base PTE word, letting a
// caller that already walked to the leaf set its accessed bit again
// without re-walking the radix tree. LookupRef and Map4K hand them
// out. A reference is only meaningful while Version() is unchanged
// from the call that produced it: any destructive mutation may have
// detached the leaf it points into. The zero AccessRef (returned for
// huge mappings, whose translated accesses set no base-PTE bit) is a
// valid no-op.
type AccessRef struct {
	w *uint64
}

// Mark sets the referenced word's accessed bit; no-op for the zero ref.
func (r AccessRef) Mark() {
	if r.w != nil {
		*r.w |= pteA
	}
}

// LookupRef translates va like Lookup and additionally returns an
// AccessRef for the mapping's accessed bit (the zero ref for huge
// mappings). The ref is valid until the table's Version changes.
func (t *Table) LookupRef(va uint64) (frame uint64, kind mem.PageSizeKind, ref AccessRef, ok bool) {
	ref.w, frame, kind = t.entry(va)
	if ok = ref.w != nil; kind == mem.Huge {
		ref.w = nil
	}
	return
}

// LookupHugeRegion reports on the 2 MiB region containing va: whether
// it is mapped huge (and its huge frame base), or how many base pages
// are mapped within it.
func (t *Table) LookupHugeRegion(va uint64) (hugeFrame uint64, isHuge bool, basePages int) {
	p := t.pmdAt(va)
	if p == nil {
		return 0, false, 0
	}
	i := index(va, hugeLevel)
	if w := p.words[i]; hugeWord(w) {
		return w >> frameShift, true, 0
	}
	return 0, false, int(p.leafLive[i])
}

// RegionLeaf returns what translates the 2 MiB input region holding
// va: its leaf, which may hold no present word, or, when the region
// is mapped huge, a nil leaf and the huge frame base. It returns (nil,
// 0, false) when neither hangs there. The leaf stays the region's
// until a destructive mutation logs the region (Dirty): Collapse and
// Map2M log the region whose leaf they detach.
func (t *Table) RegionLeaf(va uint64) (l *Leaf, hugeFrame uint64, huge bool) {
	p := t.pmdAt(va)
	if p == nil {
		return nil, 0, false
	}
	i := index(va, hugeLevel)
	if w := p.words[i]; hugeWord(w) {
		return nil, w >> frameShift, true
	}
	return p.leaves[i], 0, false
}

// Unmap4K removes the base mapping for the page containing va and
// returns the frame it pointed to. Its errors are the bare ErrWrongSize
// (va is huge-mapped) and ErrNotMapped sentinels, without the address:
// reclaim probes unmapped pages routinely and discards the error, so
// the miss must not allocate. Callers that report one add va.
func (t *Table) Unmap4K(va uint64) (uint64, error) {
	w, frame, kind := t.entry(va)
	if kind == mem.Huge {
		return 0, ErrWrongSize
	}
	if w == nil {
		return 0, ErrNotMapped
	}
	*w = 0
	*t.leafLive-- // the base hit left va's leaf in the memo
	t.mapped4K--
	t.mutated(va)
	t.reverseClear(frame)
	return frame, nil
}

// Unmap2M removes the huge mapping at the 2 MiB region containing va
// and returns its huge frame base.
func (t *Table) Unmap2M(va uint64) (uint64, error) {
	hva := va &^ uint64(mem.HugeSize-1)
	p := t.pmdAt(hva)
	if p == nil {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	i := index(hva, hugeLevel)
	w := p.words[i]
	if !hugeWord(w) {
		return 0, fmt.Errorf("%w: %#x not huge-mapped", ErrNotMapped, va)
	}
	p.words[i] = 0
	p.live--
	t.mapped2M--
	t.mutated(hva)
	return w >> frameShift, nil
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
	p := t.pmdAt(hva)
	if p == nil {
		return CollapseInfo{Contiguous: true}
	}
	i := index(hva, hugeLevel)
	if w := p.words[i]; hugeWord(w) {
		return CollapseInfo{Present: mem.PagesPerHuge, Contiguous: true, Frame: w >> frameShift}
	}
	if p.leafLive[i] == 0 {
		return CollapseInfo{Contiguous: true}
	}
	info := CollapseInfo{Present: int(p.leafLive[i]), Contiguous: true}
	var base uint64
	haveBase := false
	for j, w := range p.leaves[i] {
		if w&pteP == 0 {
			continue
		}
		f := w >> frameShift
		want := f - uint64(j)
		if !haveBase {
			base = want
			haveBase = true
			if base%mem.PagesPerHuge != 0 || f < uint64(j) {
				info.Contiguous = false
			}
		} else if want != base || f < uint64(j) {
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
	p, i := t.pmdAt(hva), index(hva, hugeLevel)
	if hugeWord(p.words[i]) {
		return nil // already huge
	}
	t.pushLeaf(p.leaves[i])
	p.leaves[i] = nil
	p.leafLive[i] = 0
	t.leaf = nil
	// live: leaf pointer replaced by a huge word -> net 0 change.
	p.words[i] = info.Frame<<frameShift | pteHuge
	t.mapped4K -= mem.PagesPerHuge
	t.mapped2M++
	t.mutated(hva)
	t.reverseRegion(info.Frame, hva, false)
	return nil
}

// Remap4K changes the output frame of an existing base mapping (page
// migration), keeping its accessed bit. Returns the old frame.
func (t *Table) Remap4K(va uint64, newFrame uint64) (uint64, error) {
	if newFrame > maxFrame {
		return 0, fmt.Errorf("%w: %#x", ErrFrameRange, newFrame)
	}
	w, old, kind := t.entry(va)
	if kind == mem.Huge {
		return 0, fmt.Errorf("%w: %#x is huge-mapped", ErrWrongSize, va)
	}
	if w == nil {
		return 0, fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	*w = newFrame<<frameShift | *w&flagBits
	t.mutated(va)
	t.reverseClear(old)
	t.reverseSet(newFrame, va&^(mem.PageSize-1))
	return old, nil
}

// Split demotes the huge mapping at the region containing va into 512
// base mappings to the same frames, none of them accessed.
func (t *Table) Split(va uint64) error {
	hva := va &^ uint64(mem.HugeSize-1)
	p := t.pmdAt(hva)
	if p == nil {
		return fmt.Errorf("%w: %#x", ErrNotMapped, va)
	}
	i := index(hva, hugeLevel)
	w := p.words[i]
	if !hugeWord(w) {
		return fmt.Errorf("%w: %#x not huge-mapped", ErrNotMapped, va)
	}
	base := w >> frameShift
	l := t.newLeaf()
	for j := range l {
		l[j] = (base+uint64(j))<<frameShift | pteP
	}
	t.reverseRegion(base, hva, true)
	// live: huge word replaced by a leaf pointer -> net 0 change.
	p.words[i] = 0
	p.leaves[i] = l
	p.leafLive[i] = entriesPerNode
	t.leaf = nil
	t.mapped2M--
	t.mapped4K += mem.PagesPerHuge
	t.mutated(hva)
	return nil
}

// Spans of one entry at each level, in bytes.
const (
	pudSpan = uint64(mem.PageSize) << 27 // a PGD entry: 512 GiB
	pmdSpan = uint64(mem.PageSize) << 18 // a PUD entry: 1 GiB
)

// firstIndex returns the index of the first entry, each span bytes wide
// from base, that ends after start.
func firstIndex(base, span, start uint64) int {
	if start <= base {
		return 0
	}
	return int(min((start-base)/span, entriesPerNode))
}

// eachDir calls visit, in ascending order, for every child of d (whose
// entries are span bytes wide from base) that starts below end and
// ends after start. Returns false when visit did.
func eachDir[T any](d *dir[T], base, span, start, end uint64, visit func(c *T, va uint64) bool) bool {
	for i := firstIndex(base, span, start); i < entriesPerNode; i++ {
		va := base + uint64(i)*span
		if va >= end {
			return true
		}
		if c := d.children[i]; c != nil && !visit(c, va) {
			return false
		}
	}
	return true
}

// eachPMD calls visit, in ascending order, for every PMD node whose
// 1 GiB span overlaps [start, end). Returns false when visit did.
func (t *Table) eachPMD(start, end uint64, visit func(p *pmd, va uint64) bool) bool {
	return eachDir(t.root, 0, pudSpan, start, end, func(pud *dir[pmd], va uint64) bool {
		return eachDir(pud, va, pmdSpan, start, end, visit)
	})
}

// ScanHuge calls fn for every huge mapping in ascending VA order.
// Returning false from fn stops the scan.
func (t *Table) ScanHuge(fn func(m Mapping) bool) {
	t.scan(0, ^uint64(0), false, fn)
}

// ScanAll calls fn for every mapping (base and huge) in ascending VA
// order. Returning false stops the scan.
func (t *Table) ScanAll(fn func(m Mapping) bool) {
	t.scan(0, ^uint64(0), true, fn)
}

// ScanRegions calls fn, in ascending order, with the base VA of every
// 2 MiB region that holds a mapping: a huge entry, or a leaf with a
// live entry (Unmap4K leaves emptied leaves in place, and those do not
// count). It stops at the PMD level and never visits leaf entries.
// Returning false stops the scan.
func (t *Table) ScanRegions(fn func(va uint64) bool) {
	t.eachPMD(0, ^uint64(0), func(p *pmd, va uint64) bool {
		if p.live == 0 {
			return true
		}
		for i, w := range p.words {
			if (hugeWord(w) || p.leafLive[i] > 0) && !fn(va+uint64(i)*mem.HugeSize) {
				return false
			}
		}
		return true
	})
}

// scan visits, in ascending VA order, the mappings that overlap
// [start, end): VA < end and VA+size > start. Subtrees that cannot
// hold such a mapping are skipped without being entered, and leaves
// are entered only when base is set (otherwise the scan yields huge
// mappings only). Returns false when the visitor aborted.
func (t *Table) scan(start, end uint64, base bool, fn func(m Mapping) bool) bool {
	return t.eachPMD(start, end, func(p *pmd, pva uint64) bool {
		for i := firstIndex(pva, mem.HugeSize, start); i < entriesPerNode; i++ {
			va := pva + uint64(i)*mem.HugeSize
			if va >= end {
				return true
			}
			if w := p.words[i]; hugeWord(w) {
				if !fn(Mapping{VA: va, Frame: w >> frameShift, Kind: mem.Huge}) {
					return false
				}
				continue
			}
			if l := p.leaves[i]; l != nil && base && !scanLeaf(l, va, start, end, fn) {
				return false
			}
		}
		return true
	})
}

// scanLeaf visits the base mappings of the leaf at va that lie in
// [start, end), in ascending order. Returns false when fn did.
func scanLeaf(l *Leaf, lva, start, end uint64, fn func(m Mapping) bool) bool {
	for i := firstIndex(lva, mem.PageSize, start); i < entriesPerNode; i++ {
		va := lva + uint64(i)*mem.PageSize
		if va >= end {
			return true
		}
		if w := l[i]; w&pteP != 0 && !fn(Mapping{VA: va, Frame: w >> frameShift, Kind: mem.Base}) {
			return false
		}
	}
	return true
}

// Accessed reports whether the base mapping for the page containing va
// has been accessed since mapping or the last ClearAccessed.
func (t *Table) Accessed(va uint64) bool {
	w, _, kind := t.entry(va)
	return w != nil && kind == mem.Base && *w&pteA != 0
}

// ClearAccessed resets the accessed bit of the base mapping for the
// page containing va (the periodic A-bit harvesting OSes do).
func (t *Table) ClearAccessed(va uint64) {
	if w, _, kind := t.entry(va); w != nil && kind == mem.Base {
		*w &^= pteA
	}
}

// ScanRange calls fn, in ascending VA order, for every mapping that
// overlaps [start, end), including a huge mapping that begins before
// start. It descends straight to the range. Returning false stops the
// scan.
func (t *Table) ScanRange(start, end uint64, fn func(m Mapping) bool) {
	t.scan(start, end, true, fn)
}
