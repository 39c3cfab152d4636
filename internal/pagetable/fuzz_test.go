package pagetable

import (
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

	const regions = 8
	const pages = regions * mem.PagesPerHuge

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*1024 {
			data = data[:3*1024]
		}
		tb := New()
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
			checkScans(t, tb, start, end, int(x%7), va, hva, start)
		}

		for step := 0; step+2 < len(data); step += 3 {
			op := data[step] % 9
			arg := uint64(data[step+1]) | uint64(data[step+2])<<8
			va := (arg % pages) * mem.PageSize
			hva := (arg % regions) * mem.HugeSize
			switch op {
			case 0: // Map4K with a fresh frame; its ref marks the new PTE
				if ref, err := tb.Map4K(va, nextFrame); err == nil {
					nextFrame++
					ref.Mark()
					if !tb.Accessed(va) {
						t.Fatalf("step %d: Map4K's ref did not mark %#x", step, va)
					}
				}
				check(step, "Map4K", va, hva)
			case 1: // Unmap4K
				_, _ = tb.Unmap4K(va)
				check(step, "Unmap4K", va, hva)
			case 2: // Map2M with a fresh aligned frame
				if err := tb.Map2M(hva, nextHuge); err == nil {
					nextHuge += mem.PagesPerHuge
				}
				check(step, "Map2M", va, hva)
			case 3: // Unmap2M
				_, _ = tb.Unmap2M(hva)
				check(step, "Unmap2M", va, hva)
			case 4: // Split a huge mapping into 512 base PTEs
				if tb.Split(hva) == nil {
					for i := uint64(0); i < mem.PagesPerHuge; i++ {
						if tb.Accessed(hva + i*mem.PageSize) {
							t.Fatalf("step %d: page %d of split region %#x reads accessed", step, i, hva)
						}
					}
				}
				check(step, "Split", va, hva)
			case 5: // Collapse 512 contiguous base PTEs in place
				_ = tb.Collapse(hva)
				check(step, "Collapse", va, hva)
			case 6: // Remap4K (migration) to a fresh frame
				if _, err := tb.Remap4K(va, nextFrame); err == nil {
					nextFrame++
				}
				check(step, "Remap4K", va, hva)
			case 7: // Populate a whole region with contiguous frames so
				// a later Collapse can succeed.
				base := takeHuge()
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_, _ = tb.Map4K(hva+i*mem.PageSize, base+i)
				}
				check(step, "PopulateRegion", va, hva)
			case 8: // Mark every base page of the region accessed
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_, _, ref, _ := tb.LookupRef(hva + i*mem.PageSize)
					ref.Mark()
				}
				check(step, "MarkRegion", va, hva)
			}
		}
	})
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
			if va >= m.VA && va < m.VA+m.Kind.Bytes() {
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
		if m.VA < end && m.VA+m.Kind.Bytes() > start {
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
