package tlb

import (
	"slices"
	"testing"

	"repro/internal/mem"
)

// flushHugeRegionProbe is the reference region flush in its per-page
// form: probe the huge entry's set, then the set of each of the
// region's 512 base pages.
func (t *TLB) flushHugeRegionProbe(va uint64) {
	base := va &^ uint64(mem.HugeSize-1)
	flush := func(addr uint64, kind mem.PageSizeKind) {
		tag, si := t.tagOf(addr, kind)
		set := t.set(si)
		for i := range set {
			if set[i].tag == tag {
				set[i] = entry{tag: invalidTag}
				t.stats.Flushes++
			}
		}
	}
	flush(base, mem.Huge)
	for p := uint64(0); p < mem.PagesPerHuge; p++ {
		flush(base+p*mem.PageSize, mem.Base)
	}
}

// FuzzFlushHugeRegion fills TLBs of three geometries (the default, a
// single set, and more sets than a region has pages) with base and
// huge entries clustered around a few 2 MiB regions, then checks that
// the one-pass FlushHugeRegion leaves every way and the Flushes count
// exactly as the per-page probe reference does.
func FuzzFlushHugeRegion(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(0))
	f.Add([]byte{255, 17, 130, 4, 9, 200, 33, 66, 1, 1, 1, 1}, uint8(1))
	f.Add([]byte{3, 3, 3, 3, 128, 129, 130, 131}, uint8(3))

	geometries := []Config{DefaultConfig(), DefaultConfig(), DefaultConfig()}
	geometries[1].Sets = 1
	geometries[2].Sets = 1024

	f.Fuzz(func(t *testing.T, data []byte, target uint8) {
		if len(data) > 8192 {
			data = data[:8192]
		}
		// Addresses fall in regions 0..3 so flushes of region
		// target%4 find entries, and regions 4..7 alias the
		// same sets with different tags.
		addr := func(i int) uint64 {
			b := uint64(data[i])
			region := b & 7
			page := (b >> 3) * 17 % mem.PagesPerHuge
			if i+1 < len(data) {
				page = (page + uint64(data[i+1])*31) % mem.PagesPerHuge
			}
			return region<<mem.HugeShift | page<<mem.PageShift
		}
		for _, cfg := range geometries {
			got, want := New(cfg), New(cfg)
			for i := range data {
				va, kind := addr(i), mem.Base
				if data[i]&0x80 != 0 && data[i]&0x40 != 0 {
					kind = mem.Huge
				}
				got.Insert(va, kind)
				want.Insert(va, kind)
			}
			va := uint64(target%8)<<mem.HugeShift | uint64(target)<<mem.PageShift
			got.FlushHugeRegion(va)
			want.flushHugeRegionProbe(va)
			if !slices.Equal(got.ways, want.ways) {
				t.Fatalf("%dx%d: ways differ after flushing %#x", cfg.Sets, cfg.Ways, va)
			}
			if got.stats != want.stats {
				t.Fatalf("%dx%d: stats %+v, reference %+v", cfg.Sets, cfg.Ways, got.stats, want.stats)
			}
		}
	})
}
