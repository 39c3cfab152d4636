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
// counters, live counts, alignment). After every operation the ranged
// scans are also checked against ScanAll (checkScans).
func FuzzPageTableMapUnmap(f *testing.F) {
	// Seeds: scatter of base maps; full region + collapse + split;
	// huge map + unmap; remap churn.
	f.Add([]byte{0, 1, 0, 0, 5, 0, 1, 1, 0, 6, 200, 1})
	f.Add([]byte{7, 0, 0, 5, 0, 0, 4, 0, 0, 7, 1, 0, 5, 1, 0})
	f.Add([]byte{2, 2, 0, 3, 2, 0, 2, 3, 0, 4, 3, 0})
	f.Add([]byte{7, 4, 0, 6, 0, 8, 6, 1, 8, 1, 0, 8, 5, 4, 0})

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

		check := func(step int, op string) {
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
			checkScans(t, tb, start, end, int(x%7))
		}

		for step := 0; step+2 < len(data); step += 3 {
			op := data[step] % 8
			arg := uint64(data[step+1]) | uint64(data[step+2])<<8
			va := (arg % pages) * mem.PageSize
			hva := (arg % regions) * mem.HugeSize
			switch op {
			case 0: // Map4K with a fresh frame
				if err := tb.Map4K(va, nextFrame); err == nil {
					nextFrame++
				}
				check(step, "Map4K")
			case 1: // Unmap4K
				_, _ = tb.Unmap4K(va)
				check(step, "Unmap4K")
			case 2: // Map2M with a fresh aligned frame
				if err := tb.Map2M(hva, nextHuge); err == nil {
					nextHuge += mem.PagesPerHuge
				}
				check(step, "Map2M")
			case 3: // Unmap2M
				_, _ = tb.Unmap2M(hva)
				check(step, "Unmap2M")
			case 4: // Split a huge mapping into 512 base PTEs
				_ = tb.Split(hva)
				check(step, "Split")
			case 5: // Collapse 512 contiguous base PTEs in place
				_ = tb.Collapse(hva)
				check(step, "Collapse")
			case 6: // Remap4K (migration) to a fresh frame
				if _, err := tb.Remap4K(va, nextFrame); err == nil {
					nextFrame++
				}
				check(step, "Remap4K")
			case 7: // Populate a whole region with contiguous frames so
				// a later Collapse can succeed.
				base := takeHuge()
				for i := uint64(0); i < mem.PagesPerHuge; i++ {
					_ = tb.Map4K(hva+i*mem.PageSize, base+i)
				}
				check(step, "PopulateRegion")
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
// and VA+size > start (so a huge mapping straddling start counts), and
// ScanHuge the huge ones. limit > 0 also checks that a visitor
// returning false stops ScanRange after exactly that prefix.
func checkScans(t *testing.T, tb *Table, start, end uint64, limit int) {
	t.Helper()
	var inRange, huge []Mapping
	for _, m := range collect(tb.ScanAll, 0) {
		if m.VA < end && m.VA+m.Kind.Bytes() > start {
			inRange = append(inRange, m)
		}
		if m.Kind == mem.Huge {
			huge = append(huge, m)
		}
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
