package machine_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/policy"
	"repro/internal/tlb"
)

// runTwins is a VM taking the first-touch run path and a twin with the
// walk cache off, which faults page by page (the reference path).
type runTwins struct {
	ms  [2]*machine.Machine
	vms [2]*machine.VM
	// gemini holds each twin's GEMINI policies, when the system is
	// GEMINI, so their counters can be compared too.
	gemini [2]*core.GuestPolicy
	host   [2]*core.HostPolicy
}

// runSystems are the systems whose policies answer runs.
var runSystems = []string{"base-only", "FHPM", "THP", "GEMINI"}

// newRunTwins builds the twins for one system. swap arms each
// machine's swap tier before the VM is added.
func newRunTwins(t *testing.T, system string, guestPages, hostPages uint64, swap bool) *runTwins {
	t.Helper()
	tw := &runTwins{}
	for i := range tw.vms {
		m := machine.NewMachine(hostPages, machine.DefaultCosts())
		if swap {
			m.EnableSwap(machine.SwapConfig{})
		}
		var vm *machine.VM
		switch system {
		case "base-only":
			vm = m.AddVM(guestPages, policy.BaseOnly{}, policy.BaseOnly{}, tlb.DefaultConfig())
		case "FHPM":
			co, gp, hp := policy.NewFHPM(policy.DefaultFHPMParams())
			vm = m.AddVM(guestPages, gp, hp, tlb.DefaultConfig())
			co.Attach(vm)
		case "THP":
			vm = m.AddVM(guestPages, policy.NewTHP(policy.DefaultTHPParams()),
				policy.NewTHP(policy.DefaultTHPParams()), tlb.DefaultConfig())
		case "base-only/THP":
			vm = m.AddVM(guestPages, policy.BaseOnly{}, policy.NewTHP(policy.DefaultTHPParams()), tlb.DefaultConfig())
		case "GEMINI":
			g, gp, hp := core.New(core.Config{})
			vm = m.AddVM(guestPages, gp, hp, tlb.DefaultConfig())
			g.Attach(vm)
			tw.gemini[i], tw.host[i] = gp, hp
		default:
			t.Fatalf("unknown system %q", system)
		}
		tw.ms[i], tw.vms[i] = m, vm
	}
	tw.vms[1].SetWalkCacheEnabled(false)
	return tw
}

// do applies op to both twins.
func (tw *runTwins) do(op func(m *machine.Machine, vm *machine.VM)) {
	for i := range tw.vms {
		op(tw.ms[i], tw.vms[i])
	}
}

// mmap maps a VMA of the given pages in both twins' guests and returns
// its start.
func (tw *runTwins) mmap(t *testing.T, pages uint64) uint64 {
	t.Helper()
	a := tw.vms[0].Guest.Space.MMap(pages*mem.PageSize, 0)
	b := tw.vms[1].Guest.Space.MMap(pages*mem.PageSize, 0)
	if a.Start != b.Start {
		t.Fatalf("twins placed a VMA at %#x and %#x", a.Start, b.Start)
	}
	return a.Start
}

// access issues gvas as one AccessN on both twins and requires equal
// cycles and equal state afterwards. run, when not nil, also requires
// the run path to take (true) or decline (false) the first access.
func (tw *runTwins) access(t *testing.T, what string, gvas []uint64, run *bool) {
	t.Helper()
	var got uint64
	if run != nil {
		c, k := tw.vms[0].AccessRun(gvas)
		if (k > 0) != *run {
			t.Fatalf("%s: the run path served %d accesses, want a run: %v", what, k, *run)
		}
		got = c + tw.vms[0].AccessN(gvas[k:])
	} else {
		got = tw.vms[0].AccessN(gvas)
	}
	if want := tw.vms[1].AccessN(gvas); got != want {
		t.Fatalf("%s: %d cycles on the run path, %d page by page", what, got, want)
	}
	tw.same(t, what)
}

// same fails the test unless the twins agree on every observable the
// fault and access paths write.
func (tw *runTwins) same(t *testing.T, what string) {
	t.Helper()
	a, b := tw.vms[0], tw.vms[1]
	for _, l := range [][2]*machine.Layer{{a.Guest, b.Guest}, {a.EPT, b.EPT}} {
		sameTables(t, 0, l[0], l[1])
		if l[0].Stats != l[1].Stats {
			t.Fatalf("%s: %s stats diverged:\nrun      %+v\nper page %+v", what, l[0].Name, l[0].Stats, l[1].Stats)
		}
		for r := uint64(0); r < 1<<13; r++ {
			if h0, h1 := l[0].Heat(r<<mem.HugeShift), l[1].Heat(r<<mem.HugeShift); h0 != h1 {
				t.Fatalf("%s: %s heat of region %d is %d on the run path, %d page by page", what, l[0].Name, r, h0, h1)
			}
		}
		ba, bb := l[0].Buddy, l[1].Buddy
		if ba.FreePages() != bb.FreePages() || !slices.Equal(ba.FreeRegionsAtLeast(1, nil), bb.FreeRegionsAtLeast(1, nil)) {
			t.Fatalf("%s: %s free books diverged", what, l[0].Name)
		}
		for o := 0; o <= 10; o++ {
			if ba.FreeBlockCount(o) != bb.FreeBlockCount(o) {
				t.Fatalf("%s: %s holds %d free order-%d blocks on the run path, %d page by page",
					what, l[0].Name, ba.FreeBlockCount(o), o, bb.FreeBlockCount(o))
			}
		}
		if ba.ReservationCount() != bb.ReservationCount() {
			t.Fatalf("%s: %s reservations diverged", what, l[0].Name)
		}
		if l[0].SwappedPages() != l[1].SwappedPages() {
			t.Fatalf("%s: %s swapped pages diverged", what, l[0].Name)
		}
	}
	if s0, s1 := a.TLB.Stats(), b.TLB.Stats(); s0 != s1 {
		t.Fatalf("%s: TLB stats diverged:\nrun      %+v\nper page %+v", what, s0, s1)
	}
	if g := tw.gemini; g[0] != nil && (g[0].Stats != g[1].Stats || tw.host[0].Stats != tw.host[1].Stats) {
		t.Fatalf("%s: GEMINI counters diverged:\nrun      %+v %+v\nper page %+v %+v",
			what, g[0].Stats, tw.host[0].Stats, g[1].Stats, tw.host[1].Stats)
	}
	for _, m := range tw.ms {
		if vs := m.CheckInvariants(); len(vs) != 0 {
			t.Fatalf("%s: %v", what, vs)
		}
	}
}

// pages returns the addresses of n ascending pages from va.
func pages(va uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = va + uint64(i)*mem.PageSize
	}
	return out
}

func ptr(b bool) *bool { return &b }

// TestFirstTouchRunMatchesPerPage drives each run-answering system
// through one populate, churn and re-touch script on a VM taking the
// first-touch run path and on a twin faulting page by page, and
// requires equal cycles for every batch and equal state after it. Then
// it covers the places where the run path must stop, decline or read
// state it did not make (firstTouchRunEdgeCases).
func TestFirstTouchRunMatchesPerPage(t *testing.T) {
	const guestPages = (96 << 20) >> mem.PageShift
	for _, sys := range runSystems {
		t.Run(sys, func(t *testing.T) {
			tw := newRunTwins(t, sys, guestPages, 2*guestPages, false)
			tick := func(n int) {
				for range n {
					tw.do(func(m *machine.Machine, _ *machine.VM) { m.Tick() })
				}
			}
			// Populate: one VMA ending mid-region, one of whole regions,
			// issued as one batch that crosses from one into the other.
			a := tw.mmap(t, 700)
			b := tw.mmap(t, 3*mem.PagesPerHuge)
			tw.access(t, "populate", append(pages(a, 700), pages(b, 2*mem.PagesPerHuge+17)...), nil)
			tick(5)
			tw.access(t, "populate rest", pages(b+(2*mem.PagesPerHuge+17)*mem.PageSize, mem.PagesPerHuge-17), nil)
			tick(9)
			// Churn: the first VMA goes, a new one reuses its frames, in
			// batches that split regions at odd places.
			tw.do(func(_ *machine.Machine, vm *machine.VM) { vm.Guest.UnmapVMA(vm.Guest.Space.VMAs()[0]) })
			c := tw.mmap(t, 2*mem.PagesPerHuge+5)
			all := pages(c, 2*mem.PagesPerHuge+5)
			for lo := 0; lo < len(all); lo += 301 {
				tw.access(t, fmt.Sprintf("churn at page %d", lo), all[lo:min(lo+301, len(all))], nil)
				tick(1)
			}
			// Re-touch: scattered accesses, and ascending sweeps over
			// pages that are already mapped.
			x := uint64(7)
			var scat []uint64
			for range 2000 {
				x = x*6364136223846793005 + 1442695040888963407
				scat = append(scat, b+(x>>33)%(3*mem.PagesPerHuge)*mem.PageSize)
			}
			tw.access(t, "re-touch scattered", scat, nil)
			tw.access(t, "re-touch ascending", pages(c, 600), nil)
			tick(12)
			tw.access(t, "re-touch after ticks", append(pages(b, 100), scat[:300]...), nil)
		})
	}
	firstTouchRunEdgeCases(t)
}

// firstTouchRunEdgeCases covers the places where the run path must
// stop, decline or read state it did not make, each against a twin
// faulting page by page.
func firstTouchRunEdgeCases(t *testing.T) {
	const guestPages = (32 << 20) >> mem.PageShift

	t.Run("EPT region already huge", func(t *testing.T) {
		tw := newRunTwins(t, "base-only", guestPages, 2*guestPages, false)
		// The guest's first frames are 0-511: back that GPA region huge
		// before the guest touches anything.
		tw.do(func(_ *machine.Machine, vm *machine.VM) {
			if err := vm.EPT.MapHugeEager(0); err != nil {
				t.Fatal(err)
			}
		})
		va := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "run over a huge EPT region", pages(va, mem.PagesPerHuge), ptr(true))
	})

	t.Run("EPT allocator short of the run", func(t *testing.T) {
		tw := newRunTwins(t, "base-only", guestPages, guestPages/2, true)
		a := tw.mmap(t, 4*mem.PagesPerHuge)
		tw.access(t, "populate", pages(a, 4*mem.PagesPerHuge), nil)
		// Leave the host 100 free frames, then fault 512 fresh guest
		// frames: the per-page path falls back to direct reclaim, so the
		// run must decline.
		tw.do(func(m *machine.Machine, _ *machine.VM) {
			for m.HostBuddy.FreePages() > 100 {
				if _, err := m.HostBuddy.Alloc(0); err != nil {
					t.Fatal(err)
				}
			}
		})
		b := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "run beyond the EPT's free frames", pages(b, mem.PagesPerHuge), ptr(false))
		if tw.vms[0].EPT.Stats.SwappedOutPages == 0 {
			t.Fatal("the per-page path never reclaimed: the case does not exercise direct reclaim")
		}
	})

	t.Run("guest frames spread over GPA regions", func(t *testing.T) {
		// Every fourth guest frame of the first four regions is free,
		// so the runs' frames come from four GPA regions, and the EPT's
		// THP backs each region's first fault with a huge page.
		tw := newRunTwins(t, "base-only/THP", guestPages, 2*guestPages, false)
		tw.do(func(_ *machine.Machine, vm *machine.VM) {
			for f := uint64(0); f < 4*mem.PagesPerHuge; f++ {
				if err := vm.Guest.Buddy.AllocAt(f, 0); err != nil {
					t.Fatal(err)
				}
			}
			for f := uint64(0); f < 4*mem.PagesPerHuge; f += 4 {
				vm.Guest.Buddy.Free(f, 0)
			}
		})
		va := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "run over four GPA regions", pages(va, mem.PagesPerHuge), ptr(true))
		if got := tw.vms[0].EPT.Stats.HugeFaults; got != 4 {
			t.Fatalf("EPT huge faults %d, want one per GPA region: 4", got)
		}
	})

	t.Run("guest page swapped inside the run", func(t *testing.T) {
		tw := newRunTwins(t, "base-only", guestPages, 2*guestPages, false)
		va := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "touch page 200", []uint64{va + 200*mem.PageSize}, nil)
		tw.do(func(_ *machine.Machine, vm *machine.VM) {
			if vm.Guest.SwapOutRegion(va>>mem.HugeShift, 1) != 1 {
				t.Fatal("page 200 was not swapped out")
			}
		})
		tw.access(t, "run across the swapped page", pages(va, mem.PagesPerHuge), ptr(true))
		if tw.vms[0].Guest.Stats.SwappedInPages != 1 {
			t.Fatalf("swapped-in pages %d, want 1", tw.vms[0].Guest.Stats.SwappedInPages)
		}
	})

	t.Run("EPT page swapped inside the run", func(t *testing.T) {
		tw := newRunTwins(t, "base-only", guestPages, 2*guestPages, false)
		a := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "populate", pages(a, mem.PagesPerHuge), nil)
		// GPA pages 0-99 lose their backing, 100-299 go to swap and
		// 300-511 stay; the guest then faults a new VMA onto the same
		// guest frames.
		tw.do(func(_ *machine.Machine, vm *machine.VM) {
			vm.EPT.SwapOutRegion(0, 300)
			vm.EPT.DiscardBacking(0, 100*mem.PageSize)
			vm.Guest.UnmapVMA(vm.Guest.Space.VMAs()[0])
		})
		b := tw.mmap(t, mem.PagesPerHuge)
		tw.access(t, "run over swapped EPT pages", pages(b, mem.PagesPerHuge), ptr(true))
		if got := tw.vms[0].EPT.Stats.SwappedInPages; got != 200 {
			t.Fatalf("swapped-in EPT pages %d, want 200", got)
		}
	})

	t.Run("run reaches the VMA end", func(t *testing.T) {
		tw := newRunTwins(t, "FHPM", guestPages, 2*guestPages, false)
		a := tw.mmap(t, 20)
		b := tw.mmap(t, 60)
		gvas := append(pages(a, 20), pages(b, 60)...)
		c, k := tw.vms[0].AccessRun(gvas)
		if k != 20 {
			t.Fatalf("the run served %d accesses, want the VMA's 20", k)
		}
		if want := tw.vms[1].AccessN(gvas[:20]); c != want {
			t.Fatalf("run of 20 cost %d cycles, %d page by page", c, want)
		}
		tw.access(t, "the next VMA", gvas[20:], ptr(true))
	})

	t.Run("GEMINI claim fails mid-run", func(t *testing.T) {
		tw := newRunTwins(t, "GEMINI", guestPages, 2*guestPages, false)
		va := tw.mmap(t, 2*mem.PagesPerHuge)
		tw.access(t, "anchor", pages(va, 1), nil)
		// Take the EMA target of page 100 out from under the claim.
		tw.do(func(_ *machine.Machine, vm *machine.VM) {
			gfn, _, ok := vm.Guest.Table.Lookup(va)
			if !ok {
				t.Fatal("anchor page not mapped")
			}
			target := gfn + 100
			if _, booked := vm.Guest.Buddy.ReservationAt(target / mem.PagesPerHuge); booked {
				if err := vm.Guest.Buddy.AllocReservedPage(target/mem.PagesPerHuge, target); err != nil {
					t.Fatal(err)
				}
			} else if err := vm.Guest.Buddy.AllocAt(target, 0); err != nil {
				t.Fatal(err)
			}
		})
		sub := tw.gemini[0].Stats.SubVMAs
		tw.access(t, "run into the failed claim", pages(va+mem.PageSize, 2*mem.PagesPerHuge-1), ptr(true))
		if tw.gemini[0].Stats.SubVMAs != sub+1 {
			t.Fatalf("sub-VMA re-anchors went from %d to %d, want one more", sub, tw.gemini[0].Stats.SubVMAs)
		}
	})
}
