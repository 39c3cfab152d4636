// Package tlb models the address-translation hardware whose behaviour
// the paper's evaluation measures: a set-associative TLB with separate
// 4 KiB and 2 MiB entry reach, page-walk caches, and the cost of
// one-dimensional (native) and two-dimensional (nested paging) page
// walks.
//
// The central rule (§2.2 of the paper) is encoded in how the machine
// layer chooses the insertion kind: a 2 MiB TLB entry may be installed
// only for a well-aligned huge page — a huge guest mapping backed by a
// huge host mapping at the same 2 MiB boundary. A huge page at only
// one layer is "splintered" into 4 KiB TLB entries, so it cannot reduce
// TLB misses; it can only shorten walks.
//
// Walk costs follow §2.1: a native walk reads up to 4 page-table
// entries; a nested walk reads up to (g+1)*(h+1)-1 = 24 entries for
// 4-level tables at both layers, fewer when either layer maps the
// address huge. Page-walk caches (one per layer, keyed by 2 MiB
// virtual region) shortcut the upper levels, which is why huge pages
// also reduce walk latency: their leaf entries sit one level higher
// and are covered by the walk caches far more often.
//
// See DESIGN.md §7 (performance model) for the packed 16-byte entry
// layout and the fused probe-insert the access paths use.
package tlb

import (
	"fmt"

	"repro/internal/fastdiv"
	"repro/internal/mem"
)

// Config describes the TLB geometry and timing model.
type Config struct {
	// Sets and Ways give the unified second-level TLB geometry.
	// The default (192 x 8 = 1536 entries) matches the paper's Xeon
	// E5-2620 ("1536 L2 TLB entries for 4KiB/2MiB pages").
	Sets int
	Ways int
	// MemRefCycles is the cost of one page-table memory reference
	// during a walk.
	MemRefCycles uint64
	// HitCycles is the cost of a TLB hit.
	HitCycles uint64
	// PWCEntries is the number of entries in each layer's page-walk
	// cache (direct mapped, keyed by 2 MiB virtual region).
	PWCEntries int
}

// DefaultConfig returns the geometry used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		Sets:         192,
		Ways:         8,
		MemRefCycles: 50,
		HitCycles:    1,
		PWCEntries:   16,
	}
}

// Stats aggregates TLB behaviour over a run.
type Stats struct {
	Hits         uint64
	Misses       uint64
	WalkCycles   uint64 // total cycles spent in page walks
	WalkRefs     uint64 // total page-table memory references
	Evictions    uint64
	Flushes      uint64 // entries removed by shootdowns
	Insert4K     uint64
	Insert2M     uint64
	Misses4K     uint64 // misses refilled with a 4 KiB entry
	Misses2M     uint64 // misses refilled with a 2 MiB entry
	PWCHits      uint64
	PWCMisses    uint64
	NestedWalks  uint64
	NativeWalks  uint64
	SegmentWalks uint64 // depth-1 segment-mode walks (no PWC involvement)
}

// MissRate returns misses/(hits+misses), or 0 for an idle TLB.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// entry is one TLB entry, packed into 16 bytes so an 8-way set scan —
// performed once per simulated access — touches two cache lines
// instead of three. The tag encodes the page number (4 KiB granule for
// base entries, huge-region index for huge entries) above the kind bit
// (see tagOf); there are no separate kind or valid fields. An empty
// way holds invalidTag, which no real tag can equal, so the probe loop
// needs no validity test, and its zero lru makes empty ways the
// preferred eviction victims without a separate first-invalid scan.
type entry struct {
	tag uint64
	lru uint64 // larger = more recently used; 0 only for empty ways
}

// invalidTag marks an empty way. Real tags are pn<<1|kind with pn a
// 52-bit page number at most, so they can never collide with it.
const invalidTag = ^uint64(0)

// valid reports whether the way holds a live translation.
func (e *entry) valid() bool { return e.tag != invalidTag }

// kind returns the entry kind encoded in the tag's low bit.
func (e *entry) kind() mem.PageSizeKind { return mem.PageSizeKind(e.tag & 1) }

// TLB is a unified set-associative translation lookaside buffer.
type TLB struct {
	cfg Config
	// ways holds every entry in one flat array, set i occupying
	// ways[i*cfg.Ways : (i+1)*cfg.Ways]. A flat layout keeps a set scan
	// — the operation every simulated access performs at least once —
	// to a single bounds-checked subslice with no per-set pointer
	// chase.
	ways  []entry
	clock uint64
	stats Stats

	// pwcGuest and pwcHost are direct-mapped page-walk caches keyed
	// by 2 MiB virtual (resp. guest-physical) region index.
	pwcGuest []uint64
	pwcHost  []uint64

	// setsDiv and pwcDiv are precomputed reciprocals for the set-index
	// and walk-cache modulos, used only by the fused batch kernel
	// (AccessNestedFast). The scalar paths keep the plain arithmetic so
	// the unbatched baseline stays the historic code.
	setsDiv fastdiv.Divisor
	pwcDiv  fastdiv.Divisor
}

// New creates a TLB with the given configuration.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		panic(fmt.Sprintf("tlb: bad geometry %dx%d", cfg.Sets, cfg.Ways))
	}
	pwcSize := cfg.PWCEntries
	if pwcSize <= 0 {
		pwcSize = 1
	}
	g := make([]uint64, pwcSize)
	h := make([]uint64, pwcSize)
	for i := range g {
		g[i] = ^uint64(0)
		h[i] = ^uint64(0)
	}
	ways := make([]entry, cfg.Sets*cfg.Ways)
	for i := range ways {
		ways[i].tag = invalidTag
	}
	return &TLB{cfg: cfg, ways: ways, pwcGuest: g, pwcHost: h,
		setsDiv: fastdiv.New(uint64(cfg.Sets)),
		pwcDiv:  fastdiv.New(uint64(pwcSize))}
}

// set returns the ways of set si as a subslice of the flat array.
func (t *TLB) set(si int) []entry {
	return t.ways[si*t.cfg.Ways : (si+1)*t.cfg.Ways]
}

// Stats returns a copy of the accumulated statistics.
func (t *TLB) Stats() Stats { return t.stats }

// ResetStats zeroes the statistics without touching TLB contents.
func (t *TLB) ResetStats() { t.stats = Stats{} }

// Entries returns the total entry capacity.
func (t *TLB) Entries() int { return t.cfg.Sets * t.cfg.Ways }

// tagOf computes the tag and set index for an address at a kind. The
// set index comes from the raw page number so consecutive pages spread
// over every set; the kind lives in the tag's low bit only, so a huge
// tag never collides with a base tag of equal numeric value.
func (t *TLB) tagOf(va uint64, kind mem.PageSizeKind) (tag uint64, set int) {
	var pn uint64
	if kind == mem.Huge {
		pn = va >> mem.HugeShift
	} else {
		pn = va >> mem.PageShift
	}
	return pn<<1 | uint64(kind), int(pn % uint64(t.cfg.Sets))
}

// SetIndexOf returns the set index an access of va at the given kind
// probes — tagOf's set half, computed with the precomputed reciprocal
// (identical to the % in tagOf for every input; the fastdiv package
// proves and tests exactness). The machine layer's walk cache stores
// it per translation so the batch kernel needs no per-access modulo.
func (t *TLB) SetIndexOf(va uint64, kind mem.PageSizeKind) uint32 {
	pn := va >> mem.PageShift
	if kind == mem.Huge {
		pn = va >> mem.HugeShift
	}
	return uint32(t.setsDiv.Mod(pn))
}

// Lookup probes the TLB for a translation of va at the given kind.
func (t *TLB) Lookup(va uint64, kind mem.PageSizeKind) bool {
	tag, si := t.tagOf(va, kind)
	set := t.set(si)
	for i := range set {
		if set[i].tag == tag {
			t.clock++
			set[i].lru = t.clock
			return true
		}
	}
	return false
}

// Insert installs a translation of va at the given kind, evicting the
// LRU way if the set is full. A tag already resident anywhere in the
// set is refreshed in place, never duplicated: the whole set is
// scanned for a match before a victim way is chosen, so a hole left
// by FlushPage ahead of the resident way cannot shadow it.
func (t *TLB) Insert(va uint64, kind mem.PageSizeKind) {
	tag, si := t.tagOf(va, kind)
	set := t.set(si)
	t.clock++
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = t.clock
			return
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	// Empty ways carry lru 0, below every live entry's lru, so the
	// strict-minimum scan lands on the first empty way when one exists
	// and on the LRU way otherwise.
	if set[victim].valid() {
		t.stats.Evictions++
	}
	set[victim] = entry{tag: tag, lru: t.clock}
	if kind == mem.Huge {
		t.stats.Insert2M++
	} else {
		t.stats.Insert4K++
	}
}

// FlushPage removes any entry translating va at either kind (a
// single-address shootdown).
func (t *TLB) FlushPage(va uint64) {
	for _, kind := range []mem.PageSizeKind{mem.Base, mem.Huge} {
		tag, si := t.tagOf(va, kind)
		set := t.set(si)
		for i := range set {
			if set[i].tag == tag {
				set[i] = entry{tag: invalidTag}
				t.stats.Flushes++
			}
		}
	}
}

// FlushHugeRegion removes all entries covering the 2 MiB region that
// contains va: the huge entry and every base entry within. Used when a
// region is promoted, demoted, or migrated.
//
// The region's 512 base pages select every set of the default
// geometry, so instead of probing each page's set the flush makes one
// pass over all ways. Each entry lives in the set its tag selects (the
// audit's "set-index" rule), so matching tags alone removes exactly the
// entries the per-page probes would: the huge tag region<<1|1, and
// every base tag (pn<<1) whose page number pn lies in the region, i.e.
// tag>>10 == region. The empty-way tag has its low bit set and can
// equal neither.
func (t *TLB) FlushHugeRegion(va uint64) {
	region := va >> mem.HugeShift
	hugeTag := region<<1 | uint64(mem.Huge)
	ways := t.ways
	var flushed uint64
	for i := range ways {
		tag := ways[i].tag
		if tag == hugeTag || (tag&1 == uint64(mem.Base) && tag>>(mem.HugeShift-mem.PageShift+1) == region) {
			ways[i] = entry{tag: invalidTag}
			flushed++
		}
	}
	t.stats.Flushes += flushed
}

// FlushAll empties the TLB and both walk caches (full shootdown).
func (t *TLB) FlushAll() {
	for i := range t.ways {
		if t.ways[i].valid() {
			t.ways[i] = entry{tag: invalidTag}
			t.stats.Flushes++
		}
	}
	for i := range t.pwcGuest {
		t.pwcGuest[i] = ^uint64(0)
		t.pwcHost[i] = ^uint64(0)
	}
}

// pwcProbe checks and updates a direct-mapped walk cache for the 2 MiB
// region of addr, returning true on hit.
func (t *TLB) pwcProbe(cache []uint64, addr uint64) bool {
	key := addr >> mem.HugeShift
	slot := key % uint64(len(cache))
	if cache[slot] == key {
		t.stats.PWCHits++
		return true
	}
	cache[slot] = key
	t.stats.PWCMisses++
	return false
}

// NativeWalkRefs returns the page-table references for a native
// (one-dimensional) walk of va with the given mapping kind, after
// page-walk-cache shortcuts. A PWC hit resolves the upper levels,
// leaving one reference (the leaf entry); a miss reads every level.
func (t *TLB) NativeWalkRefs(va uint64, kind mem.PageSizeKind) int {
	full := 4
	if kind == mem.Huge {
		full = 3
	}
	if t.pwcProbe(t.pwcGuest, va) {
		return 1
	}
	return full
}

// NestedWalkRefs returns the page-table references of a two-dimensional
// walk: translating va through a guest table of gKind mappings whose
// guest-physical accesses (including the final data GPA, approximated
// by gpa) are translated through a host table of hKind mappings.
//
// Without caches the cost is (g+1)*(h+1)-1 references (24 for 4+4
// levels, §2.1). The guest walk cache shortcuts the guest dimension
// and the host (nested) walk cache shortcuts each host sub-walk.
func (t *TLB) NestedWalkRefs(va uint64, gKind mem.PageSizeKind, gpa uint64, hKind mem.PageSizeKind) int {
	gSteps := 4
	if gKind == mem.Huge {
		gSteps = 3
	}
	if t.pwcProbe(t.pwcGuest, va) {
		gSteps = 1
	}
	hSteps := 4
	if hKind == mem.Huge {
		hSteps = 3
	}
	if t.pwcProbe(t.pwcHost, gpa) {
		hSteps = 1
	}
	// gSteps guest-entry reads, each preceded by a host sub-walk of
	// hSteps refs, plus the final host walk for the data GPA.
	return gSteps*(hSteps+1) + hSteps
}

// probeInsert performs the TLB-array side of one access in a single
// set scan: probe for (va, kind) and, on a miss, install it. It is
// observably identical to Lookup followed (on a miss) by Insert — one
// clock advance either way, the same refresh-in-place rule, the same
// first-invalid-else-LRU victim, the same stats — but pays one pass
// over the set where the unfused pair pays up to three. Hit/miss
// counters stay with the callers, which also charge walk costs.
func (t *TLB) probeInsert(va uint64, kind mem.PageSizeKind) bool {
	tag, si := t.tagOf(va, kind)
	set := t.set(si)
	t.clock++
	victim := 0
	for i := range set {
		if set[i].tag == tag {
			set[i].lru = t.clock
			return true
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	// As in Insert: empty ways (lru 0) win the strict-minimum scan
	// over any live way, reproducing first-invalid-else-LRU selection.
	if set[victim].valid() {
		t.stats.Evictions++
	}
	set[victim] = entry{tag: tag, lru: t.clock}
	if kind == mem.Huge {
		t.stats.Insert2M++
	} else {
		t.stats.Insert4K++
	}
	return false
}

// PackKinds packs the effective, guest, and host mapping kinds of one
// pre-resolved translation into the single staging byte
// AccessNestedBatch consumes (eff | gk<<2 | hk<<4). Callers staging
// batches precompute it once per walk-cache fill.
func PackKinds(eff, gk, hk mem.PageSizeKind) uint8 {
	return uint8(eff) | uint8(gk)<<2 | uint8(hk)<<4
}

// UnpackKinds returns the three mapping kinds PackKinds packed into meta.
func UnpackKinds(meta uint8) (eff, gk, hk mem.PageSizeKind) {
	return mem.PageSizeKind(meta & 3), mem.PageSizeKind(meta >> 2 & 3), mem.PageSizeKind(meta >> 4 & 3)
}

// AccessNestedBatch performs one nested-mode access per element of
// the parallel slices (va, gpa, the SetIndexOf-precomputed set index,
// and the PackKinds-packed mapping kinds, all pre-resolved by the
// machine layer's walk cache) and
// returns the summed cycle cost. It is observably identical to
// calling AccessNested element by element — same entries, same LRU
// order, same clock advance, same stats — which
// TestAccessNestedBatchMatchesReference pins across geometries,
// including non-power-of-two set counts and walk-cache sizes.
//
// The batch form is why the vectorized access path is fast: across a
// whole batch the kernel touches only the TLB arrays (24 KiB of ways
// plus two small walk caches), so they stay cache-resident instead of
// being evicted between accesses by the simulator's larger
// structures; the clock and the victim scan's running minimum live in
// registers; and the set-index and walk-cache modulos use precomputed
// reciprocal multiplies (fastdiv) instead of hardware division. The
// scalar path keeps AccessNested so benchmarks of the unbatched
// baseline measure the historic code.
func (t *TLB) AccessNestedBatch(vas, gpas []uint64, sis []uint32, metas []uint8) uint64 {
	w := t.cfg.Ways
	hitCycles := t.cfg.HitCycles
	memRef := t.cfg.MemRefCycles
	clock := t.clock
	var total uint64
	// Re-slice the parallel arrays to the batch length so the compiler
	// can prove every in-loop index is in bounds, and accumulate the
	// stats counters in locals flushed once after the loop — per-access
	// read-modify-writes to the shared Stats struct would otherwise be
	// the widest instruction stream in the miss path.
	gpas = gpas[:len(vas)]
	sis = sis[:len(vas)]
	metas = metas[:len(vas)]
	var hits, misses, evictions uint64
	var ins4K, ins2M, miss4K, miss2M uint64
	var pwcHits, pwcMisses, walkRefs, walkCycles uint64
	for i, va := range vas {
		meta := metas[i]
		effKind := mem.PageSizeKind(meta & 3)
		var pn uint64
		if effKind == mem.Huge {
			pn = va >> mem.HugeShift
		} else {
			pn = va >> mem.PageShift
		}
		tag := pn<<1 | uint64(effKind)
		si := int(sis[i])
		set := t.ways[si*w : si*w+w]
		clock++
		// Probe first, choose a victim only on a miss. probeInsert
		// interleaves the two, but its victim comparisons are
		// data-dependent branches that mispredict on nearly every way;
		// splitting them leaves one data-dependent branch per access
		// (hit or miss) and lets the miss path run a branchless
		// minimum. The default 8-way geometry unrolls to straight-line
		// compares (conditional moves, no per-way branches); duplicate
		// tags cannot coexist in a set, so accumulation order is
		// irrelevant.
		hitJ := -1
		if len(set) == 8 {
			// At most one way can hold the tag, so each compare sets an
			// independent candidate (way index + 1) and an OR tree
			// combines them: eight parallel conditional moves plus a
			// depth-3 reduction, instead of an eight-deep serial chain
			// through a single accumulator.
			s8 := (*[8]entry)(set)
			var c0, c1, c2, c3, c4, c5, c6, c7 int
			if s8[0].tag == tag {
				c0 = 1
			}
			if s8[1].tag == tag {
				c1 = 2
			}
			if s8[2].tag == tag {
				c2 = 3
			}
			if s8[3].tag == tag {
				c3 = 4
			}
			if s8[4].tag == tag {
				c4 = 5
			}
			if s8[5].tag == tag {
				c5 = 6
			}
			if s8[6].tag == tag {
				c6 = 7
			}
			if s8[7].tag == tag {
				c7 = 8
			}
			hitJ = ((c0 | c1) | (c2 | c3)) | ((c4 | c5) | (c6 | c7)) - 1
		} else {
			for j := range set {
				if set[j].tag == tag {
					hitJ = j
					break
				}
			}
		}
		if hitJ >= 0 {
			set[hitJ].lru = clock
			hits++
			total += hitCycles
			continue
		}
		// As in probeInsert: empty ways (lru 0) beat any live way, and
		// the first index attaining the strict minimum wins. Packing
		// the way index into the comparison key preserves exactly that
		// order (lru ties resolve to the lowest index) while compiling
		// to conditional moves instead of branches. The pack is exact
		// while the LRU clock stays below 2^48 accesses.
		minKey := ^uint64(0)
		if len(set) == 8 {
			s8 := (*[8]entry)(set)
			minKey = s8[0].lru << 16
			if k := s8[1].lru<<16 | 1; k < minKey {
				minKey = k
			}
			if k := s8[2].lru<<16 | 2; k < minKey {
				minKey = k
			}
			if k := s8[3].lru<<16 | 3; k < minKey {
				minKey = k
			}
			if k := s8[4].lru<<16 | 4; k < minKey {
				minKey = k
			}
			if k := s8[5].lru<<16 | 5; k < minKey {
				minKey = k
			}
			if k := s8[6].lru<<16 | 6; k < minKey {
				minKey = k
			}
			if k := s8[7].lru<<16 | 7; k < minKey {
				minKey = k
			}
		} else {
			for j := range set {
				key := set[j].lru<<16 | uint64(j)
				if key < minKey {
					minKey = key
				}
			}
		}
		victim := int(minKey & 0xffff)
		if set[victim].tag != invalidTag {
			evictions++
		}
		set[victim] = entry{tag: tag, lru: clock}
		misses++
		if effKind == mem.Huge {
			ins2M++
			miss2M++
		} else {
			ins4K++
			miss4K++
		}
		gSteps := 4
		if mem.PageSizeKind(meta>>2&3) == mem.Huge {
			gSteps = 3
		}
		// Walk-cache probes, branchless: writing the key back on a hit
		// is a no-op (the slot already holds it), so the store is
		// unconditional and only the counters and step counts select
		// on the outcome — conditional moves, not branches, since the
		// hit/miss pattern is data-dependent.
		gKey := va >> mem.HugeShift
		gSlot := t.pwcDiv.Mod(gKey)
		gHit := t.pwcGuest[gSlot] == gKey
		t.pwcGuest[gSlot] = gKey
		if gHit {
			gSteps = 1
			pwcHits++
		} else {
			pwcMisses++
		}
		hSteps := 4
		if mem.PageSizeKind(meta>>4) == mem.Huge {
			hSteps = 3
		}
		hKey := gpas[i] >> mem.HugeShift
		hSlot := t.pwcDiv.Mod(hKey)
		hHit := t.pwcHost[hSlot] == hKey
		t.pwcHost[hSlot] = hKey
		if hHit {
			hSteps = 1
			pwcHits++
		} else {
			pwcMisses++
		}
		refs := gSteps*(hSteps+1) + hSteps
		cycles := hitCycles + uint64(refs)*memRef
		walkRefs += uint64(refs)
		walkCycles += cycles
		total += cycles
	}
	t.clock = clock
	t.stats.Hits += hits
	t.stats.Misses += misses
	t.stats.Evictions += evictions
	t.stats.Insert4K += ins4K
	t.stats.Insert2M += ins2M
	t.stats.Misses4K += miss4K
	t.stats.Misses2M += miss2M
	t.stats.NestedWalks += misses
	t.stats.PWCHits += pwcHits
	t.stats.PWCMisses += pwcMisses
	t.stats.WalkRefs += walkRefs
	t.stats.WalkCycles += walkCycles
	return total
}

// AccessResult describes the outcome of one translated memory access.
type AccessResult struct {
	Cycles uint64
	Miss   bool
	Refs   int
}

// AccessNative performs one native-mode translation: probe, and on a
// miss charge a one-dimensional walk and install an entry of the
// mapping kind.
func (t *TLB) AccessNative(va uint64, kind mem.PageSizeKind) AccessResult {
	if t.probeInsert(va, kind) {
		t.stats.Hits++
		return AccessResult{Cycles: t.cfg.HitCycles}
	}
	t.stats.Misses++
	if kind == mem.Huge {
		t.stats.Misses2M++
	} else {
		t.stats.Misses4K++
	}
	t.stats.NativeWalks++
	refs := t.NativeWalkRefs(va, kind)
	cycles := t.cfg.HitCycles + uint64(refs)*t.cfg.MemRefCycles
	t.stats.WalkRefs += uint64(refs)
	t.stats.WalkCycles += cycles
	return AccessResult{Cycles: cycles, Miss: true, Refs: refs}
}

// AccessSegment performs one segment-mode translation (the flat
// segment table of machine.SegmentTranslation): probe, and on a miss
// charge a depth-1 walk — a single segment-descriptor reference — and
// install an entry of the permitted kind. Segment lookups never touch
// the page-walk caches, so PWCHits/PWCMisses stay flat on this path.
func (t *TLB) AccessSegment(va uint64, effKind mem.PageSizeKind) AccessResult {
	if t.probeInsert(va, effKind) {
		t.stats.Hits++
		return AccessResult{Cycles: t.cfg.HitCycles}
	}
	t.stats.Misses++
	if effKind == mem.Huge {
		t.stats.Misses2M++
	} else {
		t.stats.Misses4K++
	}
	t.stats.SegmentWalks++
	const refs = 1
	cycles := t.cfg.HitCycles + refs*t.cfg.MemRefCycles
	t.stats.WalkRefs += refs
	t.stats.WalkCycles += cycles
	return AccessResult{Cycles: cycles, Miss: true, Refs: refs}
}

// AccessNested performs one virtualized translation. effKind is the
// TLB-entry kind permitted by the alignment rule: Huge only when the
// guest maps va huge AND the host maps the region huge at the same
// boundary; Base otherwise. gKind and hKind are the actual per-layer
// mapping kinds, which determine walk length on a miss.
func (t *TLB) AccessNested(va uint64, effKind, gKind, hKind mem.PageSizeKind, gpa uint64) AccessResult {
	if t.probeInsert(va, effKind) {
		t.stats.Hits++
		return AccessResult{Cycles: t.cfg.HitCycles}
	}
	t.stats.Misses++
	if effKind == mem.Huge {
		t.stats.Misses2M++
	} else {
		t.stats.Misses4K++
	}
	t.stats.NestedWalks++
	refs := t.NestedWalkRefs(va, gKind, gpa, hKind)
	cycles := t.cfg.HitCycles + uint64(refs)*t.cfg.MemRefCycles
	t.stats.WalkRefs += uint64(refs)
	t.stats.WalkCycles += cycles
	return AccessResult{Cycles: cycles, Miss: true, Refs: refs}
}
