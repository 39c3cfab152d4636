package machine

import (
	"testing"

	"repro/internal/audit"
	"repro/internal/mem"
	"repro/internal/tlb"
)

func expectViolations(t *testing.T, vs []audit.Violation, want ...string) {
	t.Helper()
	allowed := make(map[string]bool, len(want))
	for _, w := range want {
		allowed[w] = true
		if !audit.Has(vs, w) {
			t.Errorf("auditor missed injected %q violation; got:\n%s", w, audit.Report(vs))
		}
	}
	for _, v := range vs {
		if !allowed[v.Invariant] {
			t.Errorf("unexpected collateral violation: %v", v)
		}
	}
}

// touchedVM builds a machine with one VM, touches a few pages, and
// asserts the audit baseline is clean.
func touchedVM(t *testing.T) (*Machine, *VM) {
	t.Helper()
	m, vm := newTestMachine(basePolicy{}, basePolicy{})
	v := vm.Guest.Space.MMap(2*mem.HugeSize, 0)
	for i := uint64(0); i < 64; i++ {
		vm.Access(v.Start + i*mem.PageSize)
	}
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	return m, vm
}

func TestAuditCatchesStaleTLBEntry(t *testing.T) {
	_, vm := touchedVM(t)
	// Unmap a page straight through the table, bypassing the layer's
	// shootdown: the TLB retains an entry for a dead VA.
	va := vm.Guest.Space.VMAs()[0].Start
	if !vm.TLB.Lookup(va, mem.Base) {
		t.Fatal("setup: no TLB entry for the touched page")
	}
	frame, err := vm.Guest.Table.Unmap4K(va)
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.Buddy.Free(frame, 0)
	expectViolations(t, vm.CheckInvariants(), "tlb-stale-entry")
}

func TestAuditCatchesMappedFrameFreed(t *testing.T) {
	_, vm := touchedVM(t)
	va := vm.Guest.Space.VMAs()[0].Start
	frame, _, ok := vm.Guest.Table.Lookup(va)
	if !ok {
		t.Fatal("setup: page not mapped")
	}
	vm.Guest.Buddy.Free(frame, 0) // frame now both mapped and free
	expectViolations(t, vm.CheckInvariants(), "frame-mapped-free")
}

func TestAuditCatchesHugeStatDrift(t *testing.T) {
	_, vm := touchedVM(t)
	vm.Guest.Stats.HugeMappedPages += mem.PagesPerHuge
	expectViolations(t, vm.CheckInvariants(), "stat-huge-mapped")
}

func TestAuditCatchesCrossVMFrameSharing(t *testing.T) {
	m := NewMachine(testHostPages, DefaultCosts())
	vmA := m.AddVM(16*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	vmB := m.AddVM(16*mem.PagesPerHuge, basePolicy{}, basePolicy{}, tlb.DefaultConfig())
	va := vmA.Guest.Space.MMap(mem.HugeSize, 0)
	vb := vmB.Guest.Space.MMap(mem.HugeSize, 0)
	vmA.Access(va.Start)
	vmB.Access(vb.Start)
	if vs := m.CheckInvariants(); len(vs) != 0 {
		t.Fatalf("baseline not clean: %s", audit.Report(vs))
	}
	// Point one of B's EPT entries at a host frame owned by A.
	gfnA, _, _ := vmA.Guest.Table.Lookup(va.Start)
	hostFrame, _, ok := vmA.EPT.Table.Lookup(gfnA * mem.PageSize)
	if !ok {
		t.Fatal("setup: A's GPA not EPT-mapped")
	}
	stolenGPA := uint64(10) * mem.HugeSize // B never touched this GPA
	if _, err := vmB.EPT.Table.Map4K(stolenGPA, hostFrame); err != nil {
		t.Fatal(err)
	}
	expectViolations(t, m.CheckInvariants(), "ept-frame-shared")
}
