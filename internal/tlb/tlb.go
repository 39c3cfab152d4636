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
// See DESIGN.md §7 (performance model) for the one-line-per-set tag
// layout, the packed recency ranks and the victim formula.
package tlb

import (
	"fmt"
	"math/bits"

	"repro/internal/fastdiv"
	"repro/internal/mem"
)

// Config describes the TLB geometry and timing model.
type Config struct {
	// Sets and Ways give the unified second-level TLB geometry.
	// The default (192 x 8 = 1536 entries) matches the paper's Xeon
	// E5-2620 ("1536 L2 TLB entries for 4KiB/2MiB pages"). Ways must
	// lie in 1..8: every set is stored as eight ways, one cache line
	// of tags and one byte of recency rank each, and a narrower
	// geometry leaves the ways past Ways empty.
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

// invalidTag marks an empty way. Real tags are pn<<1|kind with pn a
// 52-bit page number at most, so they can never collide with it.
const invalidTag = ^uint64(0)

// Every set stores setWays tags and one word of ranks, whatever
// cfg.Ways: ways past cfg.Ways hold invalidTag and rank emptyRank
// forever, so no probe or victim choice can reach them.
const (
	setWays   = 8
	lanes     = 0x0101010101010101 // 1 in each byte of a rank word
	highBits  = 0x8080808080808080 // bit 7 of each byte
	emptyRank = 0x7f               // rank of an empty or padding way
	emptyAges = emptyRank * lanes  // rank word of an empty set
)

// regionWords is the size of the region summary: 4096 bits.
const regionWords = 64

// regionBit returns region r's word index and bit in the summary.
func regionBit(r uint64) (int, uint64) {
	return int(r >> 6 & (regionWords - 1)), 1 << (r & 63)
}

// tagRegion returns the 2 MiB region of a live tag's entry: a base
// tag's bits from 10 up, a huge tag's from 1 up.
func tagRegion(tag uint64) uint64 {
	return tag >> (mem.HugeShift - mem.PageShift + 1 - (mem.HugeShift-mem.PageShift)*(tag&1))
}

// touch returns the rank word a with way j made the most recent:
// every lane ranked below j's rank r moves one rank older and j ranks
// 0. Ranks never exceed 0x7f, so (r+0x7f) - lane per byte neither
// borrows nor carries, and its bit 7 is set exactly when lane < r.
// A fill into an empty way (r = 0x7f) ages every live lane and no
// empty one.
func touch(a uint64, j int) uint64 {
	s := uint(j) * 8
	r := a >> s & 0xff
	younger := ((r+emptyRank)*lanes - a) & highBits
	return (a + younger>>7) &^ (0xff << s)
}

// vacate returns the rank word a with way j emptied: every live lane
// ranked above j's rank r moves one rank newer and j ranks emptyRank,
// so the live ways still rank 0..k-1. Per byte, lane + (0x7f-r) has
// bit 7 set exactly when lane > r, and lane + 1 exactly when the lane
// is empty.
func vacate(a uint64, j int) uint64 {
	s := uint(j) * 8
	r := a >> s & 0xff
	a |= emptyRank << s
	newer := (a + (emptyRank-r)*lanes) &^ (a + lanes) & highBits
	return a - newer>>7
}

// TLB is a unified set-associative translation lookaside buffer.
type TLB struct {
	cfg Config
	// tags holds setWays tags per set, set i at tags[8i : 8i+8], so a
	// set is one 64-byte cache line and the probe is eight compares
	// against it. The tag encodes the page number (4 KiB granule for
	// base entries, huge-region index for huge entries) above the kind
	// bit (see tagOf); an empty way holds invalidTag, which no real tag
	// can equal, so the probe needs no validity test.
	tags []uint64
	// ages holds one word per set: byte j is way j's recency rank,
	// 0 for the most recent. The live ways of a set always rank
	// 0..k-1 and empty ways rank emptyRank, so a miss's victim — the
	// lowest-index empty way, else the least recent — is the lowest
	// way ranked at least Ways-1, found with one add (victimAdd) and
	// one trailing-zero count instead of a search.
	ages      []uint64
	victimAdd uint64
	stats     Stats

	// pwcGuest and pwcHost are direct-mapped page-walk caches keyed
	// by 2 MiB virtual (resp. guest-physical) region index.
	pwcGuest []uint64
	pwcHost  []uint64

	// setsDiv and pwcDiv are precomputed reciprocals for the set-index
	// (SetIndexOf) and walk-cache (AccessNestedBatch) modulos. The
	// scalar paths keep the plain arithmetic so the unbatched baseline
	// stays the historic code.
	setsDiv fastdiv.Divisor
	pwcDiv  fastdiv.Divisor

	// regions summarizes which 2 MiB virtual regions may hold an entry:
	// every fill sets bit r%4096 for the entry's region r, and only
	// FlushHugeRegion and FlushAll clear bits, so a clear bit proves
	// the region holds none (audit rule "region-summary") and its
	// flush returns at once. Evictions leave bits set.
	regions [regionWords]uint64
}

// New creates a TLB with the given configuration.
func New(cfg Config) *TLB {
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.Ways > setWays {
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
	t := &TLB{cfg: cfg,
		tags:      make([]uint64, cfg.Sets*setWays),
		ages:      make([]uint64, cfg.Sets),
		victimAdd: uint64(0x81-cfg.Ways) * lanes,
		pwcGuest:  g, pwcHost: h,
		setsDiv: fastdiv.New(uint64(cfg.Sets)),
		pwcDiv:  fastdiv.New(uint64(pwcSize))}
	t.emptyWays()
	return t
}

// emptyWays empties every way.
func (t *TLB) emptyWays() {
	for i := range t.tags {
		t.tags[i] = invalidTag
	}
	for i := range t.ages {
		t.ages[i] = emptyAges
	}
}

// set returns the tags of set si.
func (t *TLB) set(si int) *[setWays]uint64 {
	return (*[setWays]uint64)(t.tags[si*setWays : si*setWays+setWays])
}

// victim returns the way a miss in a set with rank word a fills: the
// lowest way ranked at least Ways-1. While the set has an empty way
// the live ways rank below Ways-1, so that is the lowest-index empty
// way; in a full set it is the least recent way. Per byte,
// lane + 0x81-Ways stays below 0x100 and has bit 7 set exactly when
// lane >= Ways-1.
func (t *TLB) victim(a uint64) int {
	return bits.TrailingZeros64((a+t.victimAdd)&highBits) >> 3
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
// proves and tests exactness). The machine layer stages it with each
// access, so the batch kernel needs no modulo of its own; its walk
// cache keeps each region's Huge-kind set.
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
	for j, tg := range t.set(si) {
		if tg == tag {
			t.ages[si] = touch(t.ages[si], j)
			return true
		}
	}
	return false
}

// Insert installs a translation of va at the given kind, evicting the
// LRU way if the set is full. A tag already resident anywhere in the
// set is refreshed in place, never duplicated: the whole set is
// probed before a victim way is chosen, so a hole left by FlushPage
// ahead of the resident way cannot shadow it.
func (t *TLB) Insert(va uint64, kind mem.PageSizeKind) { t.probeInsert(va, kind) }

// flushWay empties way j of set si.
func (t *TLB) flushWay(si, j int) {
	t.tags[si*setWays+j] = invalidTag
	t.ages[si] = vacate(t.ages[si], j)
	t.stats.Flushes++
}

// FlushPage removes any entry translating va at either kind (a
// single-address shootdown).
func (t *TLB) FlushPage(va uint64) {
	for _, kind := range []mem.PageSizeKind{mem.Base, mem.Huge} {
		tag, si := t.tagOf(va, kind)
		for j, tg := range t.set(si) {
			if tg == tag {
				t.flushWay(si, j)
			}
		}
	}
}

// FlushHugeRegion removes all entries covering the 2 MiB region that
// contains va: the huge entry and every base entry within. Used when a
// region is promoted, demoted, or migrated. A region whose summary bit
// is clear holds no entry, so its flush returns at once.
//
// The region's 512 base pages select every set of the default
// geometry, so instead of probing each page's set the flush makes one
// pass over all tags. Each entry lives in the set its tag selects (the
// audit's "set-index" rule), so matching tags alone removes exactly the
// entries the per-page probes would: the huge tag region<<1|1, and
// every base tag pn<<1 whose page number pn = region<<9 | page lies in
// the region. Clearing such a tag's nine page bits (1..9) leaves
// exactly region<<10; the huge tag and the empty-way tag keep their low
// bit set and never do, so each tag costs one masked compare and one
// plain compare. The same pass rebuilds the summary from the tags that
// survive.
func (t *TLB) FlushHugeRegion(va uint64) {
	region := va >> mem.HugeShift
	if w, b := regionBit(region); t.regions[w]&b == 0 {
		return
	}
	hugeTag := region<<1 | uint64(mem.Huge)
	baseKey := region << (mem.HugeShift - mem.PageShift + 1)
	const pageBits = (mem.PagesPerHuge - 1) << 1
	var sum [regionWords]uint64
	for i, tag := range t.tags {
		if tag&^pageBits == baseKey || tag == hugeTag {
			t.flushWay(i/setWays, i%setWays)
		} else if tag != invalidTag {
			w, b := regionBit(tagRegion(tag))
			sum[w] |= b
		}
	}
	t.regions = sum
}

// FlushAll empties the TLB and both walk caches (full shootdown).
func (t *TLB) FlushAll() {
	for _, tag := range t.tags {
		if tag != invalidTag {
			t.stats.Flushes++
		}
	}
	t.emptyWays()
	t.regions = [regionWords]uint64{}
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

// probeInsert performs the TLB-array side of one access: probe for
// (va, kind) and, on a miss, install it in the victim way, counting
// the eviction and the insert. Hit/miss counters stay with the
// callers, which also charge walk costs.
func (t *TLB) probeInsert(va uint64, kind mem.PageSizeKind) bool {
	tag, si := t.tagOf(va, kind)
	set := t.set(si)
	a := t.ages[si]
	for j, tg := range set {
		if tg == tag {
			t.ages[si] = touch(a, j)
			return true
		}
	}
	j := t.victim(a)
	if set[j] != invalidTag {
		t.stats.Evictions++
	}
	set[j] = tag
	t.ages[si] = touch(a, j)
	w, b := regionBit(va >> mem.HugeShift)
	t.regions[w] |= b
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
// batches precompute it once per kind pair.
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
// machine layer's walk cache) and returns the summed cycle cost. It is
// observably identical to calling AccessNested element by element —
// same entries, same recency ranks, same stats — which
// TestAccessNestedBatchMatchesReference pins across geometries,
// including non-power-of-two set counts and walk-cache sizes.
//
// The batch form is why the vectorized access path is fast: across a
// whole batch the kernel touches only the TLB arrays (12 KiB of tags,
// 1.5 KiB of ranks and two small walk caches), so they stay
// cache-resident instead of being evicted between accesses by the
// simulator's larger structures; a set's probe is eight compares
// against one cache line and its victim one add and one trailing-zero
// count over its rank word; and the walk-cache modulo uses a
// precomputed reciprocal multiply (fastdiv) instead of hardware
// division. The scalar path keeps AccessNested so benchmarks of the
// unbatched baseline measure the historic code.
func (t *TLB) AccessNestedBatch(vas, gpas []uint64, sis []uint32, metas []uint8) uint64 {
	hitCycles := t.cfg.HitCycles
	memRef := t.cfg.MemRefCycles
	tags, ages := t.tags, t.ages
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
		set := (*[setWays]uint64)(tags[si*setWays : si*setWays+setWays])
		a := ages[si]
		// At most one way can hold the tag, so each compare sets an
		// independent candidate (way index + 1) and an OR tree
		// combines them: eight parallel conditional moves plus a
		// depth-3 reduction, leaving one data-dependent branch per
		// access (hit or miss).
		var c0, c1, c2, c3, c4, c5, c6, c7 int
		if set[0] == tag {
			c0 = 1
		}
		if set[1] == tag {
			c1 = 2
		}
		if set[2] == tag {
			c2 = 3
		}
		if set[3] == tag {
			c3 = 4
		}
		if set[4] == tag {
			c4 = 5
		}
		if set[5] == tag {
			c5 = 6
		}
		if set[6] == tag {
			c6 = 7
		}
		if set[7] == tag {
			c7 = 8
		}
		if hitJ := ((c0 | c1) | (c2 | c3)) | ((c4 | c5) | (c6 | c7)) - 1; hitJ >= 0 {
			ages[si] = touch(a, hitJ)
			hits++
			total += hitCycles
			continue
		}
		j := t.victim(a)
		if set[j] != invalidTag {
			evictions++
		}
		set[j] = tag
		ages[si] = touch(a, j)
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
		// The region summary: a miss mostly finds its region's bit
		// already set, and testing before storing keeps the store off
		// the miss path (hotbench AccessSteadyState).
		gKey := va >> mem.HugeShift
		if w, b := regionBit(gKey); t.regions[w]&b == 0 {
			t.regions[w] |= b
		}
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
