package pagetable

import (
	"math/bits"
	"slices"
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
)

// FuzzPageTableMapUnmap drives random map/unmap/collapse/split/remap
// sequences over an 8-region (16 MiB) address window and runs the
// structural audit after every operation. Frames are handed out by
// monotone counters so no frame is ever legally double-mapped; the
// audit is the oracle for everything else (partition, rmap inverse,
// counters, live counts, alignment, the leaf and reverse-chunk memos).
// After every operation the ranged scans, and Lookup, LookupRef and
// Accessed at the step's addresses, are also checked against ScanAll
// (checkScans), so every Collapse, Split and Map2M sequence runs
// through the leaf memo. Collapse and Map2M stack the leaves they
// detach and Split and Map4K reuse them, so right after a Split every
// page of the region must read unaccessed, as on a new leaf.
//
// The fuzzer also keeps its own model of every mapping (frame and
// accessed bit of each base page, frame of each huge page), predicts
// whether each operation succeeds, and after every operation reads the
// raw PTE words of the step's addresses and of its whole 2 MiB region
// straight from the tree (checkWords): each must equal the word the
// model implies, bit for bit, so a lost frame bit or an accessed bit
// left in a reused word fails at the step that made it.
//
// Its UnmapBase steps run UnmapBase on the table and Unmap4K page by
// page on a deep copy of it (unmapEach), and both must then hold the
// same state (sameTable).
func FuzzPageTableMapUnmap(f *testing.F) {
	// Seeds: scatter of base maps; full region + collapse + split;
	// huge map + unmap; remap churn.
	f.Add([]byte{0, 1, 0, 0, 5, 0, 1, 1, 0, 6, 200, 1})
	f.Add([]byte{7, 0, 0, 5, 0, 0, 4, 0, 0, 7, 1, 0, 5, 1, 0})
	f.Add([]byte{2, 2, 0, 3, 2, 0, 2, 3, 0, 4, 3, 0})
	f.Add([]byte{7, 4, 0, 6, 0, 8, 6, 1, 8, 1, 0, 8, 5, 4, 0})
	f.Add([]byte{0, 1, 0, 2, 3, 0, 1, 1, 0, 0, 2, 4}) // Unmap4K empties a leaf
	// Leaf reuse: a marked region collapses and another region's Split
	// takes its leaf; a demote/re-collapse cycle of one region; an
	// emptied leaf that Map2M drops and a later Map4K takes.
	f.Add([]byte{7, 0, 0, 8, 0, 0, 5, 0, 0, 2, 1, 0, 4, 1, 0, 8, 1, 0})
	f.Add([]byte{7, 2, 0, 8, 2, 0, 5, 2, 0, 4, 2, 0, 8, 2, 0, 5, 2, 0, 4, 2, 0})
	f.Add([]byte{0, 0, 0, 8, 0, 0, 1, 0, 0, 2, 0, 0, 0, 0, 6, 7, 5, 0, 5, 5, 0, 4, 0, 0})
	// A collapsed region's full, marked leaf taken by a Map4K in a
	// fresh region: every other word of the reused leaf must read 0.
	f.Add([]byte{7, 0, 0, 8, 0, 0, 5, 0, 0, 0, 3, 2})
	// UnmapBase: a whole populated region; a marked region with
	// unaccessedOnly (keeps every page), then after a Split (clears
	// every page); a capped run from mid-region; a huge region.
	f.Add([]byte{7, 1, 0, 9, 0, 2})
	f.Add([]byte{7, 1, 0, 8, 1, 0, 19, 1, 0, 5, 1, 0, 4, 1, 0, 19, 1, 0})
	f.Add([]byte{0, 9, 0, 0, 10, 0, 0, 12, 0, 49, 10, 0, 9, 0, 0})
	f.Add([]byte{2, 3, 0, 9, 3, 0, 1, 3, 0})
	// UnmapBase right after a check that left the leaf memo on another
	// region: it must move the memo to its own region's leaf.
	f.Add([]byte("2002121000"))

	const regions = 8
	const pages = regions * mem.PagesPerHuge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			data = data[:3*1024]
		}
		tb := New()
		m := newModel()
		nextFrame := uint64(1 << 30) // base frames: always fresh
		nextHuge := uint64(1 << 40)  // huge-aligned frames: always fresh
		takeHuge := func() uint64 {
			h := nextHuge
			nextHuge += mem.PagesPerHuge
			return h
		}

		check := func(step int, op string, va, hva uint64) {
			t.Helper()
			if vs := tb.CheckInvariants(); len(vs) != 0 {
				t.Fatalf("step %d (%s): %s", step, op, audit.Report(vs))
			}
			// An unaligned range from this step's bytes: it starts
			// anywhere in the window (often inside a huge mapping) and
			// spans from nothing to past the window's end.
			x := uint64(data[step+1]) | uint64(data[step+2])<<8 | uint64(data[step])<<16
			start := x * 2654435761 % (regions*mem.HugeSize + mem.HugeSize)
			end := start + x%(3*mem.HugeSize)
			if x%5 == 0 {
				end = start + x%mem.PageSize
			}
			checkWords(t, tb, m, step, op, hva, va, start)
			checkScans(t, tb, start, end, int(x%7), va, hva, start)
			// checkScans marked each of those pages through its ref.
			m.mark(va)
			m.mark(hva)
			m.mark(start)
		}
		expect := func(step int, op string, err error, want bool) {
			t.Helper()
			if (err == nil) != want {
				t.Fatalf("step %d (%s): err %v, model predicted success %v", step, op, err, want)
			}
		}

		for step := 0; step+2 < len(data); step += 3 {
			op := data[step] % 10
			arg := uint64(data[step+1]) | uint64(data[step+2])<<8
			va := (arg % pages) * mem.PageSize
			hva := (arg % regions) * mem.HugeSize
			switch op {
			case 0: // Map4K with a fresh frame; its ref marks the new PTE
				ok := m.canMap4K(va)
				ref, err := tb.Map4K(va, nextFrame)
				expect(step, "Map4K", err, ok)
				if err == nil {
					m.base[va] = modelPTE{frame: nextFrame, accessed: true}
					nextFrame++
					ref.Mark()
					if !tb.Accessed(va) {
						t.Fatalf("step %d: Map4K's ref did not mark %#x", step, va)
					}
				}
				check(step, "Map4K", va, hva)
			case 1: // Unmap4K
				_, ok := m.base[va]
				_, err := tb.Unmap4K(va)
				expect(step, "Unmap4K", err, ok)
				delete(m.base, va)
				check(step, "Unmap4K", va, hva)
			case 2: // Map2M with a fresh aligned frame
				ok := m.canMap2M(hva)
				err := tb.Map2M(hva, nextHuge)
				expect(step, "Map2M", err, ok)
				if err == nil {
					m.huge[hva] = nextHuge
					nextHuge += mem.PagesPerHuge
				}
				check(step, "Map2M", va, hva)
			case 3: // Unmap2M
				_, ok := m.huge[hva]
				_, err := tb.Unmap2M(hva)
				expect(step, "Unmap2M", err, ok)
				delete(m.huge, hva)
				check(step, "Unmap2M", va, hva)
			case 4: // Split a huge mapping into 512 base PTEs
				h, ok := m.huge[hva]
				err := tb.Split(hva)
				expect(step, "Split", err, ok)
				if err == nil {
					delete(m.huge, hva)
					for i := uint64(0); i < mem.PagesPerHuge; i++ {
						m.base[hva+i*mem.PageSize] = modelPTE{frame: h + i}
						if tb.Accessed(hva + i*mem.PageSize) {
							t.Fatalf("step %d: page %d of split region %#x reads accessed", step, i, hva)
						}
					}
				}
				check(step, "Split", va, hva)
			case 5: // Collapse 512 contiguous base PTEs in place
				h, ok := m.collapsible(hva)
				err := tb.Collapse(hva)
				expect(step, "Collapse", err, ok)
				if _, huge := m.huge[hva]; err == nil && !huge {
					for i := uint64(0); i < mem.PagesPerHuge; i++ {
						delete(m.base, hva+i*mem.PageSize)
					}
					m.huge[hva] = h
				}
				check(step, "Collapse", va, hva)
			case 6: // Remap4K (migration) to a fresh frame
				e, ok := m.base[va]
				_, err := tb.Remap4K(va, nextFrame)
				expect(step, "Remap4K", err, ok)
				if err == nil {
					m.base[va] = modelPTE{frame: nextFrame, accessed: e.accessed}
					nextFrame++
				}
				check(step, "Remap4K", va, hva)
			case 7: // Populate a whole region with contiguous frames so
				// a later Collapse can succeed.
				base := takeHuge()
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					pva := hva + i*mem.PageSize
					ok := m.canMap4K(pva)
					_, err := tb.Map4K(pva, base+i)
					expect(step, "PopulateRegion", err, ok)
					if err == nil {
						m.base[pva] = modelPTE{frame: base + i}
					}
				}
				check(step, "PopulateRegion", va, hva)
			case 8: // Mark every base page of the region accessed
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_, _, ref, _ := tb.LookupRef(hva + i*mem.PageSize)
					ref.Mark()
					m.mark(hva + i*mem.PageSize)
				}
				check(step, "MarkRegion", va, hva)
			case 9: // UnmapBase against Unmap4K page by page
				unaccessedOnly := data[step]/10%2 == 1
				max := []int{mem.PagesPerHuge, 1, 3, 64, 0, 200, 511, 7}[data[step]/20%8]
				end := va + (arg*2654435761>>7)%(mem.PagesPerHuge+64)*mem.PageSize
				ref := cloneTable(tb)
				wantFrames, wantPages := unmapEach(ref, va, end, max, unaccessedOnly)
				var pages [mem.PagesPerHuge / 64]uint64
				frames := tb.UnmapBase(va, end, max, unaccessedOnly, nil, &pages)
				if !slices.Equal(frames, wantFrames) || pages != wantPages {
					t.Fatalf("step %d: UnmapBase(%#x, %#x, %d, %v) = %#x %x, Unmap4K page by page gives %#x %x",
						step, va, end, max, unaccessedOnly, frames, pages, wantFrames, wantPages)
				}
				sameTable(t, step, tb, ref)
				for w, word := range pages {
					for ; word != 0; word &= word - 1 {
						delete(m.base, regionOf(va)+uint64(w*64+bits.TrailingZeros64(word))*mem.PageSize)
					}
				}
				check(step, "UnmapBase", va, hva)
			}
		}
	})
}

// modelPTE is the fuzzer's view of one base mapping.
type modelPTE struct {
	frame    uint64
	accessed bool
}

// model is the fuzzer's reference page table: base mappings by page
// address and huge mappings by region address.
type model struct {
	base map[uint64]modelPTE
	huge map[uint64]uint64
}

func newModel() *model {
	return &model{base: make(map[uint64]modelPTE), huge: make(map[uint64]uint64)}
}

func regionOf(va uint64) uint64 { return va &^ (mem.HugeSize - 1) }

// canMap4K reports whether Map4K at the page va must succeed.
func (m *model) canMap4K(va uint64) bool {
	_, huge := m.huge[regionOf(va)]
	_, base := m.base[va]
	return !huge && !base
}

// canMap2M reports whether Map2M at the region hva must succeed: it is
// neither huge-mapped nor holding a base page.
func (m *model) canMap2M(hva uint64) bool {
	if _, huge := m.huge[hva]; huge {
		return false
	}
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		if _, ok := m.base[hva+i*mem.PageSize]; ok {
			return false
		}
	}
	return true
}

// collapsible reports whether Collapse at hva must succeed, and the
// huge frame the region then maps: it is already huge, or all 512
// pages map frame h+i for a 512-aligned h.
func (m *model) collapsible(hva uint64) (h uint64, ok bool) {
	if h, huge := m.huge[hva]; huge {
		return h, true
	}
	first, ok := m.base[hva]
	if !ok || first.frame%mem.PagesPerHuge != 0 {
		return 0, false
	}
	for i := uint64(1); i < mem.PagesPerHuge; i++ {
		if e, ok := m.base[hva+i*mem.PageSize]; !ok || e.frame != first.frame+i {
			return 0, false
		}
	}
	return first.frame, true
}

// mark records an accessed-bit mark at va's page, a no-op unless it is
// base-mapped.
func (m *model) mark(va uint64) {
	pva := va &^ (mem.PageSize - 1)
	if e, ok := m.base[pva]; ok {
		e.accessed = true
		m.base[pva] = e
	}
}

// word returns the PTE word the model implies for va's page and its
// level: the PMD word for a huge mapping, else the leaf word (0 when
// unmapped).
func (m *model) word(va uint64) (w uint64, level int) {
	if h, ok := m.huge[regionOf(va)]; ok {
		return h<<frameShift | pteP | ptePS, hugeLevel
	}
	e, ok := m.base[va&^(mem.PageSize-1)]
	if !ok {
		return 0, 0
	}
	w = e.frame<<frameShift | pteP
	if e.accessed {
		w |= pteA
	}
	return w, 0
}

// treeWord reads the PTE word translating va's page straight from the
// tree, bypassing the leaf memo: the PMD word when it is huge, else
// the leaf word (0 when there is no leaf).
func treeWord(tb *Table, va uint64) (w uint64, level int) {
	p := tb.pmdAt(va)
	if p == nil {
		return 0, 0
	}
	i := index(va, hugeLevel)
	if w := p.words[i]; w != 0 {
		return w, hugeLevel
	}
	if l := p.leaves[i]; l != nil {
		return l[index(va, 0)], 0
	}
	return 0, 0
}

// checkWords compares the raw PTE words of the given pages and of every
// page of hva's region with the model, decoding both on a mismatch.
func checkWords(t *testing.T, tb *Table, m *model, step int, op string, hva uint64, vas ...uint64) {
	t.Helper()
	one := func(va uint64) {
		got, gl := treeWord(tb, va)
		want, wl := m.word(va)
		if got != want || gl != wl {
			t.Fatalf("step %d (%s): word at %#x is %#x at level %d (frame %#x, P %v, A %v, PS %v), model says %#x at level %d (frame %#x, P %v, A %v, PS %v)",
				step, op, va, got, gl, got>>frameShift, got&pteP != 0, got&pteA != 0, got&ptePS != 0,
				want, wl, want>>frameShift, want&pteP != 0, want&pteA != 0, want&ptePS != 0)
		}
	}
	for _, va := range vas {
		one(va)
	}
	for i := uint64(0); i < mem.PagesPerHuge; i++ {
		one(hva + i*mem.PageSize)
	}
}

// collect gathers a scan's mappings, stopping it after limit mappings
// when limit > 0.
func collect(scan func(fn func(Mapping) bool), limit int) []Mapping {
	var out []Mapping
	scan(func(m Mapping) bool {
		out = append(out, m)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// mappingEnd returns one past the last byte a mapping translates.
func mappingEnd(m Mapping) uint64 {
	if m.Kind == mem.Huge {
		return m.VA + mem.HugeSize
	}
	return m.VA + mem.PageSize
}

// checkScans compares the ranged scans with ScanAll filtered by their
// definitions: ScanRange(start, end) reports the mappings with VA < end
// and VA+size > start (so a huge mapping straddling start counts),
// ScanHuge the huge ones, and ScanRegions the distinct 2 MiB regions
// of all of them (never the empty leaf nodes Unmap4K leaves). limit > 0
// also checks that a visitor returning false stops ScanRange and
// ScanRegions after exactly that prefix. At each of
// vas, Lookup and LookupRef must report the ScanAll mapping covering
// it, and a mark through LookupRef's ref must set the bit Accessed
// reads exactly when that mapping is a base page.
func checkScans(t *testing.T, tb *Table, start, end uint64, limit int, vas ...uint64) {
	t.Helper()
	all := collect(tb.ScanAll, 0)
	for _, va := range vas {
		var want Mapping
		found := false
		for _, m := range all {
			if va >= m.VA && va < mappingEnd(m) {
				want, found = m, true
				break
			}
		}
		wantFrame := want.Frame + (va-want.VA)>>mem.PageShift
		if f, k, ok := tb.Lookup(va); ok != found || ok && (f != wantFrame || k != want.Kind) {
			t.Fatalf("Lookup(%#x) = %#x %v %v, ScanAll has %+v (found %v)", va, f, k, ok, want, found)
		}
		f, k, ref, ok := tb.LookupRef(va)
		if ok != found || ok && (f != wantFrame || k != want.Kind) {
			t.Fatalf("LookupRef(%#x) = %#x %v %v, ScanAll has %+v (found %v)", va, f, k, ok, want, found)
		}
		base := found && want.Kind == mem.Base
		if (ref != AccessRef{}) != base {
			t.Fatalf("LookupRef(%#x) ref %+v for mapping %+v (found %v)", va, ref, want, found)
		}
		ref.Mark()
		if got := tb.Accessed(va); got != base {
			t.Fatalf("Accessed(%#x) = %v after marking, want %v", va, got, base)
		}
	}
	var inRange, huge []Mapping
	var regions []uint64
	for _, m := range all {
		if m.VA < end && mappingEnd(m) > start {
			inRange = append(inRange, m)
		}
		if m.Kind == mem.Huge {
			huge = append(huge, m)
		}
		if r := m.VA &^ (mem.HugeSize - 1); len(regions) == 0 || regions[len(regions)-1] != r {
			regions = append(regions, r)
		}
	}
	want := regions
	if limit > 0 && len(want) > limit {
		want = want[:limit]
	}
	var got []uint64
	tb.ScanRegions(func(va uint64) bool {
		got = append(got, va)
		return limit <= 0 || len(got) < limit
	})
	if !slices.Equal(got, want) {
		t.Fatalf("ScanRegions (stop after %d) = %#x, regions of ScanAll = %#x", limit, got, regions)
	}
	ranged := func(fn func(Mapping) bool) { tb.ScanRange(start, end, fn) }
	if got := collect(ranged, 0); !slices.Equal(got, inRange) {
		t.Fatalf("ScanRange(%#x, %#x) = %v, filtered ScanAll = %v", start, end, got, inRange)
	}
	if limit > 0 && len(inRange) > limit {
		if got := collect(ranged, limit); !slices.Equal(got, inRange[:limit]) {
			t.Fatalf("ScanRange(%#x, %#x) stopped after %d: %v, want %v",
				start, end, limit, got, inRange[:limit])
		}
	}
	if got := collect(tb.ScanHuge, 0); !slices.Equal(got, huge) {
		t.Fatalf("ScanHuge = %v, huge ScanAll = %v", got, huge)
	}
}

// unmapEach is UnmapBase's reference: Unmap4K on each page of [va, end)
// inside va's region in ascending order, skipping the accessed pages
// when unaccessedOnly is set, until max pages are unmapped.
func unmapEach(t *Table, va, end uint64, max int, unaccessedOnly bool) (frames []uint64, pages [mem.PagesPerHuge / 64]uint64) {
	end = min(end, regionOf(va)+mem.HugeSize)
	for pva := va &^ (mem.PageSize - 1); pva < end && len(frames) < max; pva += mem.PageSize {
		if unaccessedOnly && t.Accessed(pva) {
			continue
		}
		if f, err := t.Unmap4K(pva); err == nil {
			frames = append(frames, f)
			p := pva >> mem.PageShift % mem.PagesPerHuge
			pages[p/64] |= 1 << (p % 64)
		}
	}
	return frames, pages
}

// cloneTable deep-copies a table. The copy's leaf memo, spare stack and
// reverse-chunk memo point at the copies of what the original's point
// at.
func cloneTable(t *Table) *Table {
	c := *t
	leaves := make(map[*Leaf]*Leaf)
	leaf := func(l *Leaf) *Leaf {
		if l == nil {
			return nil
		}
		if n, ok := leaves[l]; ok {
			return n
		}
		n := new(Leaf)
		*n = *l
		leaves[l] = n
		return n
	}
	c.root = new(dir[dir[pmd]])
	*c.root = *t.root
	c.leafLive = nil
	for i, pud := range t.root.children {
		if pud == nil {
			continue
		}
		np := new(dir[pmd])
		*np = *pud
		c.root.children[i] = np
		for j, p := range pud.children {
			if p == nil {
				continue
			}
			nq := new(pmd)
			*nq = *p
			np.children[j] = nq
			for k, l := range p.leaves {
				nq.leaves[k] = leaf(l)
				if t.leafLive == &p.leafLive[k] {
					c.leafLive = &nq.leafLive[k]
				}
			}
		}
	}
	c.leaf = leaf(t.leaf)
	for i := range t.nSpare {
		c.spare[i] = leaf(t.spare[i])
	}
	c.reverse = make(map[uint64]*revChunk, len(t.reverse))
	for k, ch := range t.reverse {
		n := &revChunk{va: new([1 << revChunkBits]uint64), n: ch.n}
		*n.va = *ch.va
		c.reverse[k] = n
		if ch == t.revLast {
			c.revLast = n
		}
	}
	return &c
}

// sameTable fails the test unless both tables pass their audit and
// hold the same words, leaf counts, reverse entries and region counts,
// mapping counters, dirty log and leaf memo region.
func sameTable(t *testing.T, step int, got, want *Table) {
	t.Helper()
	for _, tb := range []*Table{got, want} {
		if vs := tb.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("step %d: %s", step, audit.Report(vs))
		}
	}
	if got.Mapped4K() != want.Mapped4K() || got.Mapped2M() != want.Mapped2M() {
		t.Fatalf("step %d: mapped %d/%d, page by page %d/%d", step,
			got.Mapped4K(), got.Mapped2M(), want.Mapped4K(), want.Mapped2M())
	}
	gr, ga := got.Dirty()
	wr, wa := want.Dirty()
	if ga != wa || !slices.Equal(gr, wr) {
		t.Fatalf("step %d: dirty log %#x (all %v), page by page %#x (all %v)", step, gr, ga, wr, wa)
	}
	if (got.leaf == nil) != (want.leaf == nil) || got.leaf != nil && got.leafKey != want.leafKey {
		t.Fatalf("step %d: leaf memo %v at region %#x, page by page %v at %#x", step,
			got.leaf != nil, got.leafKey, want.leaf != nil, want.leafKey)
	}
	for i, gp := range got.root.children {
		wp := want.root.children[i]
		if (gp == nil) != (wp == nil) {
			t.Fatalf("step %d: PUD %d present %v, page by page %v", step, i, gp != nil, wp != nil)
		}
		if gp == nil {
			continue
		}
		for j, g := range gp.children {
			w := wp.children[j]
			if (g == nil) != (w == nil) {
				t.Fatalf("step %d: PMD %d/%d present %v, page by page %v", step, i, j, g != nil, w != nil)
			}
			if g == nil {
				continue
			}
			if g.words != w.words || g.leafLive != w.leafLive || g.live != w.live {
				t.Fatalf("step %d: PMD %d/%d words, leaf counts or live count differ", step, i, j)
			}
			for k, gl := range g.leaves {
				if wl := w.leaves[k]; (gl == nil) != (wl == nil) || gl != nil && *gl != *wl {
					t.Fatalf("step %d: leaf %d/%d/%d differs from page by page", step, i, j, k)
				}
			}
		}
	}
	var zero revChunk
	zero.va = new([1 << revChunkBits]uint64)
	for _, keys := range []map[uint64]*revChunk{got.reverse, want.reverse} {
		for k := range keys {
			g, w := got.reverse[k], want.reverse[k]
			if g == nil {
				g = &zero
			}
			if w == nil {
				w = &zero
			}
			if *g.va != *w.va || g.n != w.n {
				t.Fatalf("step %d: reverse chunk %d differs from page by page", step, k)
			}
		}
	}
}
