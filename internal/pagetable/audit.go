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
//     entry points back at a live base mapping.
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
		rva, ok := t.ReverseLookup(f)
		if !ok {
			vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
				"base mapping %#x -> frame %#x has no reverse entry", va, f))
		} else if rva != va {
			vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
				"reverse entry says %#x, forward mapping says %#x", rva, va))
		}
	}
	for hi, c := range t.reverse {
		for i, v := range c {
			if v == 0 {
				continue
			}
			f := hi<<revChunkBits | uint64(i)
			if _, ok := baseFrames[f]; !ok {
				vs = append(vs, audit.Violationf(auditLayer, "rmap-inverse", f,
					"reverse entry -> %#x has no live base mapping", v-1))
			}
		}
	}
	return vs
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
