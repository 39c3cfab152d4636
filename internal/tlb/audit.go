package tlb

import (
	"repro/internal/audit"
	"repro/internal/mem"
)

// auditLayer labels TLB violations in audit reports.
const auditLayer = "tlb"

// VisitEntries calls fn for every valid entry with the virtual address
// it translates (the region base for huge entries) and its kind. fn
// returning false stops the walk. The VA is reconstructed from the
// tag, which stores the full page number above the kind bit.
func (t *TLB) VisitEntries(fn func(va uint64, kind mem.PageSizeKind) bool) {
	for _, tag := range t.tags {
		if tag == invalidTag {
			continue
		}
		pn := tag >> 1
		kind := mem.PageSizeKind(tag & 1)
		va := pn << mem.PageShift
		if kind == mem.Huge {
			va = pn << mem.HugeShift
		}
		if !fn(va, kind) {
			return
		}
	}
}

// CheckInvariants validates the TLB's internal geometry: every valid
// entry lives in the set its page number selects and appears at most
// once per set, and the set's recency ranks are a permutation of
// 0..k-1 over its k live ways, with every empty way and every padding
// way past cfg.Ways (which must stay empty) ranked emptyRank — the
// victim choice depends on it (rule "lru-rank"). The entry kind
// cannot desync from the tag since it is stored only in the tag's low
// bit. Coherence against the owning page table is a cross-layer
// property checked by the machine auditor, which has both structures
// in hand.
func (t *TLB) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	for si := 0; si < t.cfg.Sets; si++ {
		set := t.set(si)
		a := t.ages[si]
		live := 0
		for j, tag := range set {
			if tag != invalidTag && j < t.cfg.Ways {
				live++
			}
		}
		var ranked uint64 // bit r set once some live way ranks r
		for j, tag := range set {
			rank := a >> (8 * j) & 0xff
			switch {
			case tag == invalidTag || j >= t.cfg.Ways:
				if rank != emptyRank || tag != invalidTag {
					vs = append(vs, audit.Violationf(auditLayer, "lru-rank", tag,
						"set %d way %d: empty or padding way holds rank %#x (want %#x) and tag %#x",
						si, j, rank, emptyRank, tag))
				}
				continue
			case rank >= uint64(live) || ranked&(1<<rank) != 0:
				vs = append(vs, audit.Violationf(auditLayer, "lru-rank", tag,
					"set %d way %d: rank %#x is not a distinct rank below the %d live ways",
					si, j, rank, live))
			}
			ranked |= 1 << (rank & 63)
			pn := tag >> 1
			if want := int(pn % uint64(t.cfg.Sets)); want != si {
				vs = append(vs, audit.Violationf(auditLayer, "set-index", tag,
					"entry in set %d but page number selects set %d", si, want))
			}
			for _, prev := range set[:j] {
				if prev == tag {
					vs = append(vs, audit.Violationf(auditLayer, "duplicate-tag", tag,
						"tag appears twice in set %d", si))
					break
				}
			}
		}
	}
	return vs
}
