// Consolidation scenario (§6.5): two VMs share one host — a
// TLB-sensitive key/value store next to the TLB-insensitive NPB SP.D
// kernel. The paper uses this setting to show Gemini helps the
// sensitive tenant without taxing the insensitive one (overhead within
// a few percent).
package main

import (
	"fmt"

	"repro"
)

func main() {
	sens, err := repro.WorkloadByName("masstree")
	if err != nil {
		panic(err)
	}
	insens, err := repro.WorkloadByName("sp.d")
	if err != nil {
		panic(err)
	}
	fmt.Printf("VM A: %s (TLB-sensitive)   VM B: %s (TLB-insensitive)\n\n", sens.Name, insens.Name)

	var baseA, baseB, gemA, gemB repro.Result
	fmt.Printf("%-14s %16s %16s\n", "system", sens.Name+" thpt", insens.Name+" thpt")
	for _, sys := range repro.Systems() {
		ec := repro.ColocatedPair(sys, sens, insens, 5)
		ec.Fragmented = true
		rs := repro.NewEngine(ec).Run()
		a, b := rs[0], rs[1]
		fmt.Printf("%-14s %16.1f %16.1f\n", a.System, a.Throughput, b.Throughput)
		switch sys {
		case repro.HostBVMB:
			baseA, baseB = a, b
		case repro.Gemini:
			gemA, gemB = a, b
		}
	}
	fmt.Printf("\nGemini vs Host-B-VM-B: %s %+.0f%%, %s %+.1f%% (overhead bound)\n",
		sens.Name, (gemA.Throughput/baseA.Throughput-1)*100,
		insens.Name, (gemB.Throughput/baseB.Throughput-1)*100)
}
