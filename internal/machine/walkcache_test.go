package machine_test

// Tests pinning the walk cache's two contracts (DESIGN.md §7): it is
// purely an accelerator (observable results identical with the cache
// on or off), and it can never serve a stale translation across any
// sequence of destructive page-table operations. Both are checked the
// same way — by driving a cached VM and an uncached reference twin
// through identical inputs and demanding identical outputs — because
// the uncached path re-walks both tables on every access and is
// therefore stale-proof by construction.

import (
	"slices"
	"testing"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// twinVM builds one VM on its own machine with THP at both layers
// (the most invalidation-heavy configuration: synchronous huge
// faults, background collapse, reclaim-driven splits) and an 8 MiB
// VMA to play in.
func twinVM() (*machine.Machine, *machine.VM) {
	const guestPages = (64 << 20) >> mem.PageShift
	m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
	vm := m.AddVM(guestPages,
		policy.NewTHP(policy.DefaultTHPParams()),
		policy.NewTHP(policy.DefaultTHPParams()),
		tlb.DefaultConfig())
	vm.Guest.Space.MMap(8<<20, 0)
	return m, vm
}

// fuzzSpan is the page span fuzz ops address: the 8 MiB VMA.
const fuzzSpan = (8 << 20) >> mem.PageShift

// FuzzWalkCacheInvalidation drives a cached VM and an uncached twin
// through an arbitrary interleaving of accesses and destructive
// operations — promote, demote, unmap/remap, reclaim, background
// ticks, cache re-arming, and EPT promote, demote and compaction of
// the guest physical region behind an address — and requires every access to charge
// identical cycles, both layers of the twins to hold identical
// mappings and accessed bits after every operation, and the final
// machines to agree on all observable state. A walk cache serving one
// stale translation (a missed version bump anywhere in pagetable's
// destructive ops), or an accessed bit marked through a dead ref,
// shows up as a divergence.
func FuzzWalkCacheInvalidation(f *testing.F) {
	f.Add([]byte{0, 10, 1, 10, 0, 10})                          // access, promote, access
	f.Add([]byte{0, 0, 2, 0, 0, 0})                             // access, demote, access
	f.Add([]byte{0, 7, 3, 0, 0, 7, 0, 9})                       // unmap/remap cycle
	f.Add([]byte{0, 1, 4, 0, 0, 1, 5, 0, 0, 2, 6, 1, 0, 3})     // ticks, reclaim, toggle
	f.Add([]byte{0, 200, 1, 200, 4, 0, 0, 200, 2, 200, 0, 201}) // promote+tick+demote
	// A region huge at both layers, swept, broken from each side and
	// swept again: guest split and collapse, EPT split and collapse,
	// then an EPT split and a compaction of a host region behind it.
	f.Add([]byte{0, 10, 10, 10, 2, 10, 10, 10, 1, 10, 10, 10, 8, 10, 10, 10,
		7, 10, 10, 10, 8, 10, 9, 10, 10, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mc, cached := twinVM()
		mr, ref := twinVM()
		ref.SetWalkCacheEnabled(false)
		base := cached.Guest.Space.VMAs()[0].Start
		if rb := ref.Guest.Space.VMAs()[0].Start; rb != base {
			t.Fatalf("twins diverge before any op: bases %#x vs %#x", base, rb)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%11, uint64(ops[i+1])
			va := base + (arg*977)%fuzzSpan*mem.PageSize
			switch op {
			case 0: // the probe itself: identical charge on both twins
				c1 := cached.Access(va)
				c2 := ref.Access(va)
				if c1 != c2 {
					t.Fatalf("op %d: access %#x cost %d cycles cached, %d uncached", i, va, c1, c2)
				}
			case 1: // guest promotion (collapse): bumps the guest version.
				// Skip already-huge regions, as every policy does: the
				// Layer promotion API is a collapse precondition away
				// from double-counting stats.
				hb := va &^ uint64(mem.HugeSize-1)
				_, h1, _ := cached.Guest.Table.LookupHugeRegion(hb)
				_, h2, _ := ref.Guest.Table.LookupHugeRegion(hb)
				if h1 != h2 {
					t.Fatalf("op %d: hugeness diverged at %#x", i, hb)
				}
				if h1 {
					continue
				}
				e1 := cached.Guest.PromoteInPlace(hb)
				e2 := ref.Guest.PromoteInPlace(hb)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: promote diverged: %v vs %v", i, e1, e2)
				}
			case 2: // guest demotion (split)
				e1 := cached.Guest.Demote(va &^ (mem.HugeSize - 1))
				e2 := ref.Guest.Demote(va &^ (mem.HugeSize - 1))
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("op %d: demote diverged: %v vs %v", i, e1, e2)
				}
			case 3: // unmap the VMA and map a fresh one: table churn + remap
				cached.Guest.UnmapVMA(cached.Guest.Space.VMAs()[0])
				ref.Guest.UnmapVMA(ref.Guest.Space.VMAs()[0])
				cached.Guest.Space.MMap(8<<20, 0)
				ref.Guest.Space.MMap(8<<20, 0)
				base = cached.Guest.Space.VMAs()[0].Start
			case 4: // background quantum: compaction, reclaim, policy ticks
				mc.Tick()
				mr.Tick()
			case 5: // EPT-side reclaim: demotes cold huge EPT mappings,
				// an invalidation path that bypasses TLB shootdown hooks
				cached.EPT.ReclaimUnderPressure(cached.EPT.Buddy.TotalPages(), 4, nil)
				ref.EPT.ReclaimUnderPressure(ref.EPT.Buddy.TotalPages(), 4, nil)
			case 6: // re-arm the cached twin's cache (release + init path)
				cached.SetWalkCacheEnabled(arg%2 == 0)
			case 7, 8, 9: // EPT side: the guest physical region behind va
				gfn, _, ok := cached.Guest.Table.Lookup(va)
				if g2, _, ok2 := ref.Guest.Table.Lookup(va); g2 != gfn || ok2 != ok {
					t.Fatalf("op %d: guest translation of %#x diverged", i, va)
				}
				if !ok {
					continue
				}
				if e1, e2 := eptOp(cached.EPT, op, gfn), eptOp(ref.EPT, op, gfn); e1 != e2 {
					t.Fatalf("op %d: EPT op %d at guest frame %#x diverged: %v vs %v", i, op, gfn, e1, e2)
				}
			case 10: // sweep every page of va's region, in order
				hb := va &^ uint64(mem.HugeSize-1)
				for p := uint64(0); p < mem.PagesPerHuge; p++ {
					if v := hb + p*mem.PageSize; cached.Guest.Space.Find(v) != nil {
						if c1, c2 := cached.Access(v), ref.Access(v); c1 != c2 {
							t.Fatalf("op %d: sweep access %#x cost %d cycles cached, %d uncached", i, v, c1, c2)
						}
					}
				}
			}
			sameTables(t, i, cached.Guest, ref.Guest)
			sameTables(t, i, cached.EPT, ref.EPT)
		}
		s1, s2 := cached.TLB.Stats(), ref.TLB.Stats()
		if s1 != s2 {
			t.Fatalf("TLB stats diverged:\ncached %+v\nuncached %+v", s1, s2)
		}
		if a1, a2 := cached.Alignment(), ref.Alignment(); a1 != a2 {
			t.Fatalf("alignment diverged: %+v vs %+v", a1, a2)
		}
		if vs := mc.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("cached machine corrupt after op sequence: %v", vs)
		}
	})
}

// eptOp applies fuzz op 7 (collapse), 8 (split) or 9 (compact the host
// region backing it) to the guest physical 2 MiB region holding guest
// frame gfn, and reports whether it succeeded. A region the EPT
// already maps huge is not collapsed again, as no policy would.
func eptOp(E *machine.Layer, op byte, gfn uint64) bool {
	gpa := gfn * mem.PageSize &^ (mem.HugeSize - 1)
	switch op {
	case 7:
		if _, huge, _ := E.Table.LookupHugeRegion(gpa); huge {
			return false
		}
		return E.PromoteInPlace(gpa) == nil
	case 8:
		return E.Demote(gpa) == nil
	default:
		hfn, _, ok := E.Table.Lookup(gfn * mem.PageSize)
		return ok && E.CompactRegion(hfn/mem.PagesPerHuge)
	}
}

// TestWalkCacheRegionRefill: once a guest collapse makes a region huge
// over an EPT-huge region, one uncached access refills the walk cache
// for all 512 pages, and every access charges what the uncached twin
// charges.
func TestWalkCacheRegionRefill(t *testing.T) {
	build := func() *machine.VM {
		const guestPages = (64 << 20) >> mem.PageShift
		m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
		return m.AddVM(guestPages, policy.HugeOnly{}, policy.HugeOnly{}, tlb.DefaultConfig())
	}
	cached, ref := build(), build()
	ref.SetWalkCacheEnabled(false)
	twins := [2]*machine.VM{cached, ref}
	var hb uint64
	for _, vm := range twins {
		hb = vm.Guest.Space.MMap(mem.HugeSize, 0).Start
	}
	// sweep accesses the region's pages in order on both twins and
	// returns how many the walk cache did not serve.
	sweep := func(what string) int {
		t.Helper()
		uncached := 0
		for p := uint64(0); p < mem.PagesPerHuge; p++ {
			va := hb + p*mem.PageSize
			if !cached.WalkCacheServes(va) {
				uncached++
			}
			if c1, c2 := cached.Access(va), ref.Access(va); c1 != c2 {
				t.Fatalf("%s: access %#x cost %d cycles cached, %d uncached", what, va, c1, c2)
			}
		}
		return uncached
	}
	step := func(what string, op func(L *machine.Layer) error) {
		t.Helper()
		for _, vm := range twins {
			if err := op(vm.Guest); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	if n := sweep("first touch"); n != 1 {
		t.Fatalf("first touch of a doubly-huge region walked %d times, want 1", n)
	}
	step("split", func(L *machine.Layer) error { return L.Demote(hb) })
	if n := sweep("after split"); n != mem.PagesPerHuge {
		t.Fatalf("guest-base region walked %d times, want %d", n, mem.PagesPerHuge)
	}
	step("collapse", func(L *machine.Layer) error { return L.PromoteInPlace(hb) })
	if n := sweep("after collapse"); n != 1 {
		t.Fatalf("collapsed region walked %d times, want 1", n)
	}
	if n := sweep("steady"); n != 0 {
		t.Fatalf("cached doubly-huge region walked %d times, want 0", n)
	}
	if s1, s2 := cached.TLB.Stats(), ref.TLB.Stats(); s1 != s2 {
		t.Fatalf("TLB stats diverged:\ncached %+v\nuncached %+v", s1, s2)
	}
	sameTables(t, 0, cached.Guest, ref.Guest)
	sameTables(t, 0, cached.EPT, ref.EPT)
}

// TestWalkCacheSurvivesLeafReuse covers the walk cache against the
// page table's spare leaves. Region A's translations are cached, A
// collapses, and region B's split takes A's old leaf, so every cached
// A entry now holds an accessed-bit ref into B's PTEs. Collapse logged
// A, so those entries are dead: accessing A afterwards must mark
// exactly what an uncached twin marks, in both layers, at the same
// cost.
func TestWalkCacheSurvivesLeafReuse(t *testing.T) {
	build := func() *machine.VM {
		const guestPages = (64 << 20) >> mem.PageShift
		m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
		return m.AddVM(guestPages, policy.BaseOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
	}
	cached, ref := build(), build()
	ref.SetWalkCacheEnabled(false)
	twins := [2]*machine.VM{cached, ref}
	var a, b uint64
	for _, vm := range twins {
		v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
		b, a = v.Start, v.Start+mem.HugeSize
	}
	touch := func(hva uint64) {
		t.Helper()
		for i := uint64(0); i < mem.PagesPerHuge; i++ {
			va := hva + i*mem.PageSize
			if c1, c2 := cached.Access(va), ref.Access(va); c1 != c2 {
				t.Fatalf("access %#x cost %d cycles cached, %d uncached", va, c1, c2)
			}
		}
	}
	step := func(what string, op func(vm *machine.VM) error) {
		t.Helper()
		for _, vm := range twins {
			if err := op(vm); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
	}
	touch(b)
	step("collapse B", func(vm *machine.VM) error { return vm.Guest.PromoteInPlace(b) })
	touch(a) // fills the walk cache with A's translations
	step("collapse A", func(vm *machine.VM) error { return vm.Guest.PromoteInPlace(a) })
	step("split B", func(vm *machine.VM) error { return vm.Guest.Demote(b) })
	touch(a)
	sameTables(t, 0, cached.Guest, ref.Guest)
	sameTables(t, 0, cached.EPT, ref.EPT)
}

// sameTables fails the test unless two twin layers hold the same
// mappings, in the same order, with the same accessed bits.
func sameTables(t *testing.T, op int, a, b *machine.Layer) {
	t.Helper()
	var ma, mb []pagetable.Mapping
	a.Table.ScanAll(func(m pagetable.Mapping) bool { ma = append(ma, m); return true })
	b.Table.ScanAll(func(m pagetable.Mapping) bool { mb = append(mb, m); return true })
	if !slices.Equal(ma, mb) {
		t.Fatalf("op %d: %s mappings diverged:\ncached   %v\nuncached %v", op, a.Name, ma, mb)
	}
	for _, m := range ma {
		if m.Kind == mem.Base && a.Table.Accessed(m.VA) != b.Table.Accessed(m.VA) {
			t.Fatalf("op %d: %s accessed bit of %#x diverged: cached %v, uncached %v",
				op, a.Name, m.VA, a.Table.Accessed(m.VA), b.Table.Accessed(m.VA))
		}
	}
}

// TestWalkCacheObserverEffect runs a real (churning, gradually
// allocated) workload to completion twice — walk cache on, walk cache
// off — in each translation mode, and requires identical per-request
// cycle totals and final machine state. This is the observable-equivalence contract
// SetWalkCacheEnabled's documentation promises, checked at workload
// scale rather than per-op.
func TestWalkCacheObserverEffect(t *testing.T) {
	run := func(mode machine.TranslationMode, enable bool) (cycles []uint64, stats tlb.Stats, align machine.AlignStats) {
		const guestPages = (256 << 20) >> mem.PageShift
		m := machine.NewMachine(guestPages*2, machine.DefaultCosts())
		vm := m.AddVM(guestPages,
			policy.NewTHP(policy.DefaultTHPParams()),
			policy.NewTHP(policy.DefaultTHPParams()),
			tlb.DefaultConfig())
		vm.SetTranslation(mode)
		vm.SetWalkCacheEnabled(enable)
		w := workload.New(workload.Redis(), vm, 7)
		for i := 0; i < 3000; i++ {
			cycles = append(cycles, w.StepOne())
			if i%64 == 63 {
				m.Tick()
			}
		}
		return cycles, vm.TLB.Stats(), vm.Alignment()
	}
	for _, mode := range []machine.TranslationMode{machine.RadixNested{}, machine.NewSegmentTranslation()} {
		c1, s1, a1 := run(mode, true)
		c2, s2, a2 := run(mode, false)
		for i := range c1 {
			if c1[i] != c2[i] {
				t.Fatalf("%s: request %d: %d cycles cached, %d uncached", mode.Name(), i, c1[i], c2[i])
			}
		}
		if s1 != s2 {
			t.Fatalf("%s: TLB stats diverged:\ncached %+v\nuncached %+v", mode.Name(), s1, s2)
		}
		if a1 != a2 {
			t.Fatalf("%s: alignment diverged: %+v vs %+v", mode.Name(), a1, a2)
		}
	}
}
