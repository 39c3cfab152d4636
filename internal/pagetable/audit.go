package pagetable

import (
	"repro/internal/audit"
	"repro/internal/mem"
)

// auditLayer labels page-table violations in audit reports.
const auditLayer = "pagetable"

// CheckInvariants recomputes the table's invariants from a full
// traversal and reports every discrepancy:
//
//   - PTE words hold only the bits the model uses (pte-flags): a word
//     that is not present is 0, so A is never set without P; PS is set
//     exactly on present PMD words and never in a leaf; no other flag
//     bit is set;
//   - per-node live counters match the entries actually present, and
//     each PMD's per-leaf counts match their leaves (live-count);
//   - partition: a huge leaf and base mappings never cover the same
//     2 MiB input region, so every mapped address has exactly one
//     translation;
//   - 2 MiB leaves point at 512-aligned frame blocks;
//   - output frames are mapped at most once (base or inside a huge
//     block);
//   - the reverse map is an exact inverse of the forward base
//     mappings: every base mapping has its rmap entry and every rmap
//     entry points back at a live base mapping;
//   - each 2 MiB output region's reverse-entry count equals a recount
//     of its entries (rmap-region-count);
//   - the two memos are live: a fresh walk to the memoized leaf's
//     region reaches that leaf and its count (leaf-memo), and the
//     memoized reverse chunk is the map's chunk for its key
//     (rmap-memo);
//   - the spare leaves are detached: the stack stays within its
//     capacity, and no spare is nil, repeated, the leaf memo or
//     reachable from the root (spare-detached).
//
// The traversal reads the tree and the reverse map directly, never
// through the memos, so a corrupt memo cannot hide itself.
func (t *Table) CheckInvariants() []audit.Violation {
	a := tableAudit{
		baseFrames: make(map[uint64]uint64, t.mapped4K),
		hugeBlocks: make(map[uint64]uint64),
	}
	dirLive(&a, t.root, 0, 3)
	eachDir(t.root, 0, pudSpan, 0, ^uint64(0), func(pud *dir[pmd], va uint64) bool {
		dirLive(&a, pud, va, 2)
		return true
	})
	t.eachPMD(0, ^uint64(0), func(p *pmd, va uint64) bool {
		a.auditPMD(p, va)
		return true
	})
	vs := a.vs

	if a.n4k != t.mapped4K {
		vs = append(vs, audit.Violationf(auditLayer, "counter-recount", 0,
			"table holds %d base mappings but mapped4K says %d", a.n4k, t.mapped4K))
	}
	if a.n2m != t.mapped2M {
		vs = append(vs, audit.Violationf(auditLayer, "counter-recount", 0,
			"table holds %d huge mappings but mapped2M says %d", a.n2m, t.mapped2M))
	}
	// Base frames inside huge blocks: the same output frame would be
	// reachable through two translations.
	for f, va := range a.baseFrames {
		if hva, ok := a.hugeBlocks[f&^uint64(mem.PagesPerHuge-1)]; ok {
			vs = append(vs, audit.Violationf(auditLayer, "frame-double-mapped", f,
				"frame of base mapping %#x also covered by huge mapping %#x", va, hva))
		}
	}
	// rmap exact inverse of the forward base mappings.
	for f, va := range a.baseFrames {
		var rva uint64
		ok := false
		if c := t.reverse[f>>revChunkBits]; c != nil && c.va[f&(1<<revChunkBits-1)] != 0 {
			rva, ok = c.va[f&(1<<revChunkBits-1)]-1, true
		}
		if !ok {
			vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
				"base mapping %#x -> frame %#x has no reverse entry", va, f))
		} else if rva != va {
			vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
				"reverse entry says %#x, forward mapping says %#x", rva, va))
		}
	}
	for hi, c := range t.reverse {
		var n [revChunkRegions]uint16
		for i, v := range c.va {
			if v == 0 {
				continue
			}
			n[i/mem.PagesPerHuge]++
			f := hi<<revChunkBits | uint64(i)
			if _, ok := a.baseFrames[f]; !ok {
				vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
					"reverse entry -> %#x has no live base mapping", v-1))
			}
		}
		for r := range n {
			if n[r] != c.n[r] {
				f := hi<<revChunkBits | uint64(r)*mem.PagesPerHuge
				vs = append(vs, audit.Violationf(auditLayer, "rmap-region-count", f,
					"output region holds %d reverse entries but its count says %d", n[r], c.n[r]))
			}
		}
	}
	if t.leaf != nil {
		if l, live := t.freshLeaf(t.leafKey << mem.HugeShift); l != t.leaf || live != t.leafLive {
			vs = append(vs, audit.Violationf(auditLayer, "leaf-memo", t.leafKey<<mem.HugeShift,
				"memoized leaf or count is not what a fresh walk of its region reaches"))
		}
	}
	if t.revKey != noChunk && t.reverse[t.revKey] != t.revLast {
		vs = append(vs, audit.Violationf(auditLayer, "rmap-memo", t.revKey<<revChunkBits,
			"memoized reverse chunk is not the map's chunk %d", t.revKey))
	}
	return t.auditSpares(vs)
}

// auditSpares appends the spare-detached violations to vs: a spare
// that is still in the tree, or is the leaf memo, would hand one leaf
// to two regions once it is popped.
func (t *Table) auditSpares(vs []audit.Violation) []audit.Violation {
	if t.nSpare < 0 || t.nSpare > spareLeaves {
		return append(vs, audit.Violationf(auditLayer, "spare-detached", 0,
			"spare stack holds %d leaves, capacity %d", t.nSpare, spareLeaves))
	}
	spares := make(map[*Leaf]bool, t.nSpare)
	for i, l := range t.spare[:t.nSpare] {
		switch {
		case l == nil:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", 0, "spare %d is nil", i))
		case spares[l]:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", 0, "spare %d is stacked twice", i))
		case l == t.leaf:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", t.leafKey<<mem.HugeShift,
				"spare %d is the memoized leaf", i))
		}
		spares[l] = true
	}
	if len(spares) == 0 {
		return vs
	}
	t.eachPMD(0, ^uint64(0), func(p *pmd, pva uint64) bool {
		for i, l := range p.leaves {
			if spares[l] {
				vs = append(vs, audit.Violationf(auditLayer, "spare-detached", pva+uint64(i)*mem.HugeSize,
					"a spare leaf is reachable from the root"))
			}
		}
		return true
	})
	return vs
}

// freshLeaf walks from the root, bypassing the leaf memo, to the leaf
// of the region containing va and its count. Nil when the region has
// none or is huge-mapped.
func (t *Table) freshLeaf(va uint64) (*Leaf, *uint16) {
	p := t.pmdAt(va)
	if p == nil {
		return nil, nil
	}
	i := index(va, hugeLevel)
	if hugeWord(p.words[i]) || p.leaves[i] == nil {
		return nil, nil
	}
	return p.leaves[i], &p.leafLive[i]
}

// tableAudit accumulates one CheckInvariants traversal: violations,
// mapping counts and output-frame usage.
type tableAudit struct {
	vs         []audit.Violation
	n4k, n2m   uint64
	baseFrames map[uint64]uint64 // frame -> va
	hugeBlocks map[uint64]uint64 // frame block -> va
}

func (a *tableAudit) add(invariant string, key uint64, format string, args ...any) {
	a.vs = append(a.vs, audit.Violationf(auditLayer, invariant, key, format, args...))
}

// dirLive checks a PGD or PUD node's live counter against its children.
func dirLive[T any](a *tableAudit, d *dir[T], va uint64, level int) {
	n := 0
	for _, c := range d.children {
		if c != nil {
			n++
		}
	}
	if n != d.live {
		a.add("live-count", va, "level-%d node holds %d live entries but counter says %d", level, n, d.live)
	}
}

// auditPMD validates one PMD node and the leaves below it.
func (a *tableAudit) auditPMD(p *pmd, vaBase uint64) {
	live := 0
	for i, w := range p.words {
		va := vaBase + uint64(i)*mem.HugeSize
		switch {
		case w == 0:
		case w&pteP == 0:
			a.add("pte-flags", va, "PMD word %#x is not present but not 0", w)
		case w&ptePS == 0:
			a.add("pte-flags", va, "present PMD word %#x without PS: a PMD maps leaves by pointer", w)
		case w&flagBits&^pteHuge != 0:
			a.add("pte-flags", va, "PMD word %#x sets flag bits beyond P and PS", w)
		}
		n := 0
		if l := p.leaves[i]; l != nil {
			live++
			n = a.auditLeaf(l, va)
		}
		if n != int(p.leafLive[i]) {
			a.add("live-count", va, "leaf holds %d live entries but its PMD count says %d", n, p.leafLive[i])
		}
		if !hugeWord(w) {
			continue
		}
		live++
		a.n2m++
		f := w >> frameShift
		if f%mem.PagesPerHuge != 0 {
			a.add("huge-alignment", va, "huge leaf frame %#x not 512-aligned", f)
		}
		if prev, dup := a.hugeBlocks[f]; dup {
			a.add("frame-double-mapped", f, "huge block mapped by both %#x and %#x", prev, va)
		} else {
			a.hugeBlocks[f] = va
		}
		if n > 0 {
			a.add("partition", va, "huge leaf coexists with %d base mappings under it", n)
		}
	}
	if live != p.live {
		a.add("live-count", vaBase, "level-1 node holds %d live entries but counter says %d", live, p.live)
	}
}

// auditLeaf validates one leaf's words and returns how many are present.
func (a *tableAudit) auditLeaf(l *Leaf, vaBase uint64) int {
	n := 0
	for i, w := range l {
		va := vaBase + uint64(i)*mem.PageSize
		switch {
		case w == 0:
			continue
		case w&pteP == 0 && w&pteA != 0:
			a.add("pte-flags", va, "PTE word %#x has A set but is not present", w)
			continue
		case w&pteP == 0:
			a.add("pte-flags", va, "PTE word %#x is not present but not 0", w)
			continue
		case w&ptePS != 0:
			a.add("pte-flags", va, "PS set in PTE word %#x: only PMD words map 2 MiB", w)
		case w&flagBits&^(pteP|pteA) != 0:
			a.add("pte-flags", va, "PTE word %#x sets flag bits beyond P and A", w)
		}
		n++
		a.n4k++
		f := w >> frameShift
		if prev, dup := a.baseFrames[f]; dup {
			a.add("frame-double-mapped", f, "frame mapped by both %#x and %#x", prev, va)
		} else {
			a.baseFrames[f] = va
		}
	}
	return n
}
