// Custom policy: the simulator's policy interface is the extension
// point the paper's systems plug into; this example shows how to write
// a new one. "Oracle" is an idealized host-side coordinator that reads
// the guest page table directly (cross-layer knowledge no real host
// has, and Gemini's scanner approximates asynchronously) and backs
// exactly the guest-huge regions with host huge pages. It bounds what
// coordination can achieve.
package main

import (
	"fmt"

	"repro/internal/frag"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/pagetable"
	"repro/internal/policy"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// oracleHost backs an EPT fault with a huge page exactly when the
// guest currently maps the region huge, and steers its background
// promotion budget to guest-huge regions only.
type oracleHost struct {
	vm  *machine.VM
	now uint64
}

func (o *oracleHost) Name() string { return "oracle-host" }

// guestHugeAt checks the guest table live — the oracle part.
func (o *oracleHost) guestHugeAt(gpaHugeIdx uint64) bool {
	found := false
	o.vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if m.Frame/mem.PagesPerHuge == gpaHugeIdx {
			found = true
			return false
		}
		return true
	})
	return found
}

func (o *oracleHost) OnFault(L *machine.Layer, gpa uint64, v *machine.VMA) machine.Decision {
	hugeBase := gpa &^ uint64(mem.HugeSize-1)
	if machine.RegionInVMA(hugeBase, v) && o.guestHugeAt(gpa>>mem.HugeShift) {
		return machine.Decision{Kind: mem.Huge}
	}
	return machine.Decision{Kind: mem.Base}
}

func (o *oracleHost) Tick(L *machine.Layer) {
	o.now++
	if o.now%2 != 0 {
		return
	}
	// Promote EPT regions under guest huge pages, budget 2 per round.
	budget := 2
	o.vm.Guest.Table.ScanHuge(func(m pagetable.Mapping) bool {
		if budget == 0 {
			return false
		}
		gpaBase := (m.Frame / mem.PagesPerHuge) * mem.HugeSize
		if _, isHuge, _ := L.Table.LookupHugeRegion(gpaBase); isHuge {
			return true
		}
		if L.PromoteMigrate(gpaBase, nil) == nil {
			budget--
		}
		return true
	})
}

func main() {
	const guestPages = 256 * 1024 // 1 GiB
	const hostPages = 640 * 1024  // 2.5 GiB

	run := func(label string, hostPol func(vm *machine.VM) machine.Policy) {
		m := machine.NewMachine(hostPages, machine.DefaultCosts())
		vm := m.AddVM(guestPages, policy.NewTHP(policy.DefaultTHPParams()),
			policy.BaseOnly{}, tlb.DefaultConfig())
		vm.EPT.Policy = hostPol(vm)
		frag.New(m.HostBuddy, 7).FragmentTo(0.9, 0.4)
		frag.New(vm.Guest.Buddy, 8).FragmentTo(0.9, 0.4)

		spec := workload.Masstree()
		w := workload.New(spec, vm, 9)
		var cycles, ops uint64
		for i := 0; i < 3000; i++ {
			cycles += w.StepOne()
			ops++
			if i%64 == 0 {
				m.Tick()
			}
		}
		a := vm.Alignment()
		fmt.Printf("%-14s thpt=%6.1f/Mcyc  aligned=%3.0f%%  guestHuge=%d hostHuge=%d\n",
			label, float64(ops)/float64(cycles)*1e6, a.Rate()*100, a.GuestHuge, a.HostHuge)
	}

	fmt.Println("Custom-policy example: THP guest with an oracle host that")
	fmt.Println("huge-backs exactly the guest-huge regions (fragmented memory).")
	fmt.Println()
	run("thp host", func(*machine.VM) machine.Policy {
		return policy.NewTHP(policy.DefaultTHPParams())
	})
	run("oracle host", func(vm *machine.VM) machine.Policy {
		return &oracleHost{vm: vm}
	})
}
