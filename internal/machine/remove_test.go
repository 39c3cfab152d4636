package machine

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/tlb"
)

// TestRemoveVMFreesHostFrames checks the teardown contract the fleet
// layer's departures rely on: removing a VM returns every EPT-backed
// host frame to the shared buddy and its walk-cache arena to the pool,
// reports how many frames it freed, and leaves the machine clean for
// its remaining guests.
func TestRemoveVMFreesHostFrames(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	vmA := m.AddVM(16*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	vmB := m.AddVM(16*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	pristine := m.HostBuddy.FreePages()

	va := vmA.Guest.Space.MMap(4*mem.HugeSize, 0)
	vb := vmB.Guest.Space.MMap(4*mem.HugeSize, 0)
	for i := uint64(0); i < 200; i++ {
		vmA.Access(va.Start + i*mem.PageSize)
		vmB.Access(vb.Start + i*mem.PageSize)
	}
	mappedA := vmA.EPT.MappedPages()
	if mappedA == 0 {
		t.Fatal("setup: VM A mapped nothing")
	}
	afterTouch := m.HostBuddy.FreePages()

	freed := m.RemoveVM(vmA)
	if freed != mappedA {
		t.Fatalf("RemoveVM freed %d pages, VM had %d mapped", freed, mappedA)
	}
	if got, want := m.HostBuddy.FreePages(), afterTouch+mappedA; got != want {
		t.Fatalf("host free pages %d after removal, want %d", got, want)
	}
	if vmA.WalkCacheEnabled() {
		t.Fatal("removed VM still holds its walk-cache arena")
	}
	if len(m.VMs) != 1 || m.VMs[0] != vmB {
		t.Fatalf("machine VM list %v after removal", m.VMs)
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("machine dirty after removal:\n%s", audit.Report(vs))
	}

	// The survivor still works and its translations are intact.
	for i := uint64(0); i < 200; i++ {
		vmB.Access(vb.Start + i*mem.PageSize)
	}
	if m.RemoveVM(vmB); m.HostBuddy.FreePages() != pristine {
		t.Fatalf("host free pages %d after removing every VM, want pristine %d",
			m.HostBuddy.FreePages(), pristine)
	}
}

// TestRemoveVMPanicsOnForeignVM pins the caller-bug contract.
func TestRemoveVMPanicsOnForeignVM(t *testing.T) {
	m1, vm1 := newTestMachine(basePolicy{}, basePolicy{})
	_ = m1
	m2 := NewMachine(testHostPages, DefaultCosts())
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveVM of a foreign VM did not panic")
		}
	}()
	m2.RemoveVM(vm1)
}

// TestVMIDsNeverReused checks that AddVM after RemoveVM issues a fresh
// ID: audits and traces key per-VM state by vm.ID, so a departed VM
// must never be conflated with a later arrival.
func TestVMIDsNeverReused(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		vm := m.AddVM(8*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
		if seen[vm.ID] {
			t.Fatalf("VM ID %d reused on iteration %d", vm.ID, i)
		}
		seen[vm.ID] = true
		m.RemoveVM(vm)
	}
	if len(m.VMs) != 0 {
		t.Fatalf("%d VMs left after removing each", len(m.VMs))
	}
}

// TestAbsorbMigration checks the inbound live-migration booking: the
// copied pages land in the EPT layer's MigratedPages and their copy
// cost in its background cycles, exactly like intra-host migration.
func TestAbsorbMigration(t *testing.T) {
	m, vm := newTestMachine(basePolicy{}, basePolicy{})
	_ = m
	base := vm.EPT.Stats
	vm.AbsorbMigration(1000)
	if got := vm.EPT.Stats.MigratedPages - base.MigratedPages; got != 1000 {
		t.Fatalf("absorbed 1000 pages but booked %d", got)
	}
	wantCycles := 1000 * DefaultCosts().CopyPage
	if got := vm.EPT.Stats.BackgroundCycles - base.BackgroundCycles; got != wantCycles {
		t.Fatalf("absorbed copy cost %d cycles, want %d", got, wantCycles)
	}
}
