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
//   - structural soundness: leaves only at the PTE and PMD levels,
//     huge flags only on PMD leaves, per-node live counters matching
//     the entries actually present;
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
//     region reaches that node (leaf-memo), and the memoized reverse
//     chunk is the map's chunk for its key (rmap-memo);
//   - the spare leaves are detached: the stack stays within its
//     capacity, and no spare is nil, repeated, the leaf memo or
//     reachable from the root (spare-detached).
//
// The traversal reads the tree and the reverse map directly, never
// through the memos, so a corrupt memo cannot hide itself.
func (t *Table) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	var n4k, n2m uint64
	baseFrames := make(map[uint64]uint64, t.mapped4K) // frame -> va
	hugeBlocks := make(map[uint64]uint64)             // frame block -> va
	t.auditNode(t.root, 0, numLevels-1, &vs, &n4k, &n2m, baseFrames, hugeBlocks)

	if n4k != t.mapped4K {
		vs = append(vs, audit.Violationf(auditLayer, "counter-recount", 0,
			"table holds %d base mappings but mapped4K says %d", n4k, t.mapped4K))
	}
	if n2m != t.mapped2M {
		vs = append(vs, audit.Violationf(auditLayer, "counter-recount", 0,
			"table holds %d huge mappings but mapped2M says %d", n2m, t.mapped2M))
	}
	// Base frames inside huge blocks: the same output frame would be
	// reachable through two translations.
	for f, va := range baseFrames {
		if hva, ok := hugeBlocks[f&^uint64(mem.PagesPerHuge-1)]; ok {
			vs = append(vs, audit.Violationf(auditLayer, "frame-double-mapped", f,
				"frame of base mapping %#x also covered by huge mapping %#x", va, hva))
		}
	}
	// rmap exact inverse of the forward base mappings.
	for f, va := range baseFrames {
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
			if _, ok := baseFrames[f]; !ok {
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
	if t.leaf != nil && t.freshLeaf(t.leafKey<<mem.HugeShift) != t.leaf {
		vs = append(vs, audit.Violationf(auditLayer, "leaf-memo", t.leafKey<<mem.HugeShift,
			"memoized leaf is not the node a fresh walk of its region reaches"))
	}
	if t.revKey != 0 && t.reverse[t.revKey-1] != t.revLast {
		vs = append(vs, audit.Violationf(auditLayer, "rmap-memo", (t.revKey-1)<<revChunkBits,
			"memoized reverse chunk is not the map's chunk %d", t.revKey-1))
	}
	return t.auditSpares(vs)
}

// auditSpares appends the spare-detached violations to vs: a spare
// that is still in the tree, or is the leaf memo, would hand one node
// to two regions once it is popped.
func (t *Table) auditSpares(vs []audit.Violation) []audit.Violation {
	if t.nSpare < 0 || t.nSpare > spareLeaves {
		return append(vs, audit.Violationf(auditLayer, "spare-detached", 0,
			"spare stack holds %d leaves, capacity %d", t.nSpare, spareLeaves))
	}
	spares := make(map[*node]bool, t.nSpare)
	for i, n := range t.spare[:t.nSpare] {
		switch {
		case n == nil:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", 0, "spare %d is nil", i))
		case spares[n]:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", 0, "spare %d is stacked twice", i))
		case n == t.leaf:
			vs = append(vs, audit.Violationf(auditLayer, "spare-detached", t.leafKey<<mem.HugeShift,
				"spare %d is the memoized leaf", i))
		}
		spares[n] = true
	}
	var visit func(n *node, vaBase uint64, level int)
	visit = func(n *node, vaBase uint64, level int) {
		span := uint64(mem.PageSize) << (9 * uint(level))
		for i, c := range n.children {
			if c == nil {
				continue
			}
			va := vaBase + uint64(i)*span
			if spares[c] {
				vs = append(vs, audit.Violationf(auditLayer, "spare-detached", va,
					"a spare leaf is reachable from the root at level %d", level-1))
			}
			if level > 1 {
				visit(c, va, level-1)
			}
		}
	}
	if len(spares) > 0 {
		visit(t.root, 0, numLevels-1)
	}
	return vs
}

// freshLeaf walks from the root, bypassing the leaf memo, to the
// level-0 node of the region containing va. Nil when the region has
// none or is huge-mapped.
func (t *Table) freshLeaf(va uint64) *node {
	n := t.root
	for level := numLevels - 1; level > 0 && n != nil; level-- {
		idx := index(va, level)
		if level == hugeLevel && n.present[idx] && n.huge[idx] {
			return nil
		}
		n = n.children[idx]
	}
	return n
}

// auditNode recursively validates one radix node and accumulates leaf
// counts and output-frame usage.
func (t *Table) auditNode(n *node, vaBase uint64, level int, vs *[]audit.Violation,
	n4k, n2m *uint64, baseFrames, hugeBlocks map[uint64]uint64) {
	span := uint64(mem.PageSize) << (9 * uint(level))
	live := 0
	for i := 0; i < entriesPerNode; i++ {
		va := vaBase + uint64(i)*span
		if n.children[i] != nil {
			live++
		}
		if n.present[i] {
			live++
		}
		switch {
		case level == 0:
			if n.children[i] != nil {
				*vs = append(*vs, audit.Violationf(auditLayer, "leaf-structure", va,
					"PTE-level node has a child pointer"))
			}
			if !n.present[i] {
				continue
			}
			if n.huge[i] {
				*vs = append(*vs, audit.Violationf(auditLayer, "leaf-structure", va,
					"huge flag set on a PTE-level entry"))
			}
			*n4k++
			f := n.frame[i]
			if prev, dup := baseFrames[f]; dup {
				*vs = append(*vs, audit.Violationf(auditLayer, "frame-double-mapped", f,
					"frame mapped by both %#x and %#x", prev, va))
			} else {
				baseFrames[f] = va
			}
		case level == hugeLevel:
			if n.present[i] {
				if !n.huge[i] {
					*vs = append(*vs, audit.Violationf(auditLayer, "leaf-structure", va,
						"present PMD entry without huge flag"))
				}
				*n2m++
				f := n.frame[i]
				if f%mem.PagesPerHuge != 0 {
					*vs = append(*vs, audit.Violationf(auditLayer, "huge-alignment", va,
						"huge leaf frame %#x not 512-aligned", f))
				}
				if prev, dup := hugeBlocks[f]; dup {
					*vs = append(*vs, audit.Violationf(auditLayer, "frame-double-mapped", f,
						"huge block mapped by both %#x and %#x", prev, va))
				} else {
					hugeBlocks[f] = va
				}
				if c := n.children[i]; c != nil && c.live > 0 {
					*vs = append(*vs, audit.Violationf(auditLayer, "partition", va,
						"huge leaf coexists with %d base mappings under it", c.live))
				}
			}
			if c := n.children[i]; c != nil {
				t.auditNode(c, va, level-1, vs, n4k, n2m, baseFrames, hugeBlocks)
			}
		default:
			if n.present[i] || n.huge[i] {
				*vs = append(*vs, audit.Violationf(auditLayer, "leaf-structure", va,
					"leaf flags set above the PMD level"))
			}
			if c := n.children[i]; c != nil {
				t.auditNode(c, va, level-1, vs, n4k, n2m, baseFrames, hugeBlocks)
			}
		}
	}
	if live != n.live {
		*vs = append(*vs, audit.Violationf(auditLayer, "live-count", vaBase,
			"level-%d node holds %d live entries but counter says %d", level, live, n.live))
	}
}
