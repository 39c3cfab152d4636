package tlb

import (
	"fmt"
	"testing"

	"repro/internal/mem"
)

// stampTLB is the reference for TLB's recency ranks: the stamp rule
// the kernel replaced, kept as it was. Every way carries the value of
// a global clock at its last use, empty ways carry 0, and a miss
// evicts the first way attaining the strict minimum stamp — the
// lowest-index empty way if there is one, the least recent way
// otherwise. Walk costing is copied too, so the reference also
// checks AccessNestedBatch's walk-cache arithmetic.
type stampTLB struct {
	cfg      Config
	ways     []stampEntry
	clock    uint64
	stats    Stats
	pwcGuest []uint64
	pwcHost  []uint64
}

type stampEntry struct {
	tag uint64
	lru uint64 // larger = more recently used; 0 only for empty ways
}

func newStampTLB(cfg Config) *stampTLB {
	pwcSize := max(cfg.PWCEntries, 1)
	t := &stampTLB{cfg: cfg, ways: make([]stampEntry, cfg.Sets*cfg.Ways),
		pwcGuest: make([]uint64, pwcSize), pwcHost: make([]uint64, pwcSize)}
	for i := range t.ways {
		t.ways[i].tag = invalidTag
	}
	for i := range t.pwcGuest {
		t.pwcGuest[i] = ^uint64(0)
		t.pwcHost[i] = ^uint64(0)
	}
	return t
}

func (t *stampTLB) set(si int) []stampEntry {
	return t.ways[si*t.cfg.Ways : (si+1)*t.cfg.Ways]
}

func (t *stampTLB) tagOf(va uint64, kind mem.PageSizeKind) (tag uint64, set int) {
	pn := va >> mem.PageShift
	if kind == mem.Huge {
		pn = va >> mem.HugeShift
	}
	return pn<<1 | uint64(kind), int(pn % uint64(t.cfg.Sets))
}

func (t *stampTLB) Lookup(va uint64, kind mem.PageSizeKind) bool {
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

func (t *stampTLB) Insert(va uint64, kind mem.PageSizeKind) { t.probeInsert(va, kind) }

func (t *stampTLB) probeInsert(va uint64, kind mem.PageSizeKind) bool {
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
	if set[victim].tag != invalidTag {
		t.stats.Evictions++
	}
	set[victim] = stampEntry{tag: tag, lru: t.clock}
	if kind == mem.Huge {
		t.stats.Insert2M++
	} else {
		t.stats.Insert4K++
	}
	return false
}

func (t *stampTLB) FlushPage(va uint64) {
	for _, kind := range []mem.PageSizeKind{mem.Base, mem.Huge} {
		tag, si := t.tagOf(va, kind)
		set := t.set(si)
		for i := range set {
			if set[i].tag == tag {
				set[i] = stampEntry{tag: invalidTag}
				t.stats.Flushes++
			}
		}
	}
}

func (t *stampTLB) FlushHugeRegion(va uint64) {
	region := va >> mem.HugeShift
	hugeTag := region<<1 | uint64(mem.Huge)
	for i := range t.ways {
		tag := t.ways[i].tag
		if tag == hugeTag || (tag&1 == uint64(mem.Base) && tag>>(mem.HugeShift-mem.PageShift+1) == region) {
			t.ways[i] = stampEntry{tag: invalidTag}
			t.stats.Flushes++
		}
	}
}

func (t *stampTLB) FlushAll() {
	for i := range t.ways {
		if t.ways[i].tag != invalidTag {
			t.ways[i] = stampEntry{tag: invalidTag}
			t.stats.Flushes++
		}
	}
	for i := range t.pwcGuest {
		t.pwcGuest[i] = ^uint64(0)
		t.pwcHost[i] = ^uint64(0)
	}
}

func (t *stampTLB) pwcProbe(cache []uint64, addr uint64) bool {
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

func (t *stampTLB) AccessNested(va uint64, effKind, gKind, hKind mem.PageSizeKind, gpa uint64) AccessResult {
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
	refs := gSteps*(hSteps+1) + hSteps
	cycles := t.cfg.HitCycles + uint64(refs)*t.cfg.MemRefCycles
	t.stats.WalkRefs += uint64(refs)
	t.stats.WalkCycles += cycles
	return AccessResult{Cycles: cycles, Miss: true, Refs: refs}
}

// diffStamp returns "" when got holds the reference's stats, the same
// tag in every way, the rank each way's stamp implies (the number of
// live ways of its set stamped later, emptyRank for an empty way),
// and empty padding past cfg.Ways; otherwise it describes the first
// difference.
func diffStamp(got *TLB, want *stampTLB) string {
	if got.stats != want.stats {
		return fmt.Sprintf("stats %+v, reference %+v", got.stats, want.stats)
	}
	for si := 0; si < want.cfg.Sets; si++ {
		ref := want.set(si)
		for j, tag := range got.set(si) {
			wantTag, wantRank := invalidTag, uint64(emptyRank)
			if j < len(ref) && ref[j].tag != invalidTag {
				wantTag, wantRank = ref[j].tag, 0
				for _, e := range ref {
					if e.tag != invalidTag && e.lru > ref[j].lru {
						wantRank++
					}
				}
			}
			if rank := got.ages[si] >> (8 * j) & 0xff; tag != wantTag || rank != wantRank {
				return fmt.Sprintf("set %d way %d: tag %#x rank %#x, reference tag %#x rank %#x",
					si, j, tag, rank, wantTag, wantRank)
			}
		}
	}
	return ""
}

// FuzzTLBMatchesStampRule runs one op string — Lookup, Insert,
// AccessNested, an AccessNestedBatch chunk, FlushPage,
// FlushHugeRegion and, rarely, FlushAll — on a TLB and on the stamp
// rule reference at five geometries, and after every op compares the
// hit/miss outcome, every Stats field, and each set's tags and ranks.
// Each op is three bytes: the op and the address's kind, then b1 and
// b2 choosing page number b1%16 + (b2%12)·Sets, so up to 12 pages
// share each set they reach and sets fill, evict and flush often.
func FuzzTLBMatchesStampRule(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 1, 1, 0, 2, 0, 0, 1, 5, 0, 1, 1, 0, 3, 0, 0, 4})
	f.Add([]byte{2, 3, 4, 10, 3, 5, 18, 3, 6, 26, 3, 7, 4, 9, 9, 6, 0, 0, 1, 3, 8, 12, 3, 9})
	f.Add([]byte{25, 1, 2, 1, 1, 3, 1, 1, 4, 1, 1, 5, 1, 1, 6, 1, 1, 7, 1, 1, 8, 1, 1, 9, 1, 1, 10, 1, 1, 2, 5, 1, 3, 7, 0, 0})

	geometries := []Config{
		DefaultConfig(),
		{Sets: 7, Ways: 3, MemRefCycles: 50, HitCycles: 1, PWCEntries: 5},
		{Sets: 1, Ways: 8, MemRefCycles: 50, HitCycles: 1, PWCEntries: 16},
		{Sets: 5, Ways: 1, MemRefCycles: 10, HitCycles: 2, PWCEntries: 3},
		{Sets: 1024, Ways: 8, MemRefCycles: 50, HitCycles: 1, PWCEntries: 16},
	}
	kinds := [2]mem.PageSizeKind{mem.Base, mem.Huge}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*256 {
			ops = ops[:3*256]
		}
		for _, cfg := range geometries {
			got, want := New(cfg), newStampTLB(cfg)
			addr := func(op, b1, b2 byte) (va, gpa uint64, kind mem.PageSizeKind) {
				pn := uint64(b1%16) + uint64(b2%12)*uint64(cfg.Sets)
				if op&0x18 == 0x18 {
					return pn << mem.HugeShift, uint64(b1^b2) << mem.HugeShift, mem.Huge
				}
				va = pn<<mem.PageShift | uint64(b1)
				return va, uint64(b1^b2)<<mem.HugeShift | va&(mem.HugeSize-1), mem.Base
			}
			for i := 0; i+2 < len(ops); i += 3 {
				op, b1, b2 := ops[i], ops[i+1], ops[i+2]
				va, gpa, kind := addr(op, b1, b2)
				gk, hk := kinds[op>>5&1], kinds[op>>6&1]
				switch op & 7 {
				case 0:
					if g, w := got.Lookup(va, kind), want.Lookup(va, kind); g != w {
						t.Fatalf("%dx%d op %d: Lookup(%#x) = %v, reference %v", cfg.Sets, cfg.Ways, i/3, va, g, w)
					}
				case 1:
					got.Insert(va, kind)
					want.Insert(va, kind)
				case 2, 3:
					if g, w := got.AccessNested(va, kind, gk, hk, gpa), want.AccessNested(va, kind, gk, hk, gpa); g != w {
						t.Fatalf("%dx%d op %d: AccessNested(%#x) = %+v, reference %+v", cfg.Sets, cfg.Ways, i/3, va, g, w)
					}
				case 4:
					// A chunk of 1..16 accesses whose addresses walk
					// the same pool from (b1, b2).
					n := int(b2%16) + 1
					vas, gpas := make([]uint64, n), make([]uint64, n)
					sis, metas := make([]uint32, n), make([]uint8, n)
					var wantTotal uint64
					for k := range n {
						kop := op ^ byte(k*0x18)
						va, gpa, kind := addr(kop, b1+byte(k*5), b2+byte(k*7))
						vas[k], gpas[k] = va, gpa
						sis[k] = got.SetIndexOf(va, kind)
						metas[k] = PackKinds(kind, kinds[kop>>5&1], kinds[kop>>6&1])
						wantTotal += want.AccessNested(va, kind, kinds[kop>>5&1], kinds[kop>>6&1], gpa).Cycles
					}
					if g := got.AccessNestedBatch(vas, gpas, sis, metas); g != wantTotal {
						t.Fatalf("%dx%d op %d: batch of %d cost %d, reference %d", cfg.Sets, cfg.Ways, i/3, n, g, wantTotal)
					}
				case 5:
					got.FlushPage(va)
					want.FlushPage(va)
				case 6:
					got.FlushHugeRegion(va)
					want.FlushHugeRegion(va)
				case 7:
					if op>>3 == 0 {
						got.FlushAll()
						want.FlushAll()
					} else {
						got.Insert(va, kind)
						want.Insert(va, kind)
					}
				}
				if d := diffStamp(got, want); d != "" {
					t.Fatalf("%dx%d after op %d (%d): %s", cfg.Sets, cfg.Ways, i/3, op&7, d)
				}
			}
		}
	})
}
