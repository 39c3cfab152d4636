package repro

// Fleet-layer surface: re-exports of internal/fleet plus the
// placement-policy × coalescing-system sweep that paperbench serves as
// the "fleet" figure. See DESIGN.md §8 for the fleet architecture and
// EXPERIMENTS.md for the first sweep's numbers.

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// Re-exported fleet types. See package repro/internal/fleet for field
// documentation.
type (
	// FleetConfig describes one multi-host fleet run.
	FleetConfig = fleet.Config
	// FleetResult reports one fleet run.
	FleetResult = fleet.Result
	// FleetHostResult summarises one host of a fleet run.
	FleetHostResult = fleet.HostResult
	// FleetStreamConfig parameterises the VM churn generator.
	FleetStreamConfig = fleet.StreamConfig
	// FleetFlavor is one VM size class of the churn stream.
	FleetFlavor = fleet.Flavor
	// FleetEvent is one arrival or departure of the churn stream.
	FleetEvent = fleet.Event
	// FleetTickInfo is the per-tick snapshot handed to
	// FleetConfig.OnTick.
	FleetTickInfo = fleet.TickInfo
)

// RunFleet executes one fleet run: a cluster of hosts under the
// configured VM churn, placed by the configured policy.
func RunFleet(cfg FleetConfig) (FleetResult, error) { return fleet.Run(cfg) }

// FleetPolicies returns the canonical placement policy names.
func FleetPolicies() []string { return fleet.PolicyNames() }

// FleetSystems derives the fleet sweep's system axis from the system
// registry: the guest-only baseline (THP) plus every figure system
// that either coordinates the two layers or replaces the translation
// mode — the systems whose behaviour the fleet's churn and placement
// pressure can actually differentiate. A newly registered coordinated
// system joins the fleet figure automatically.
func FleetSystems() []System {
	systems := []System{THP}
	for _, s := range Systems() {
		d := sim.Def(s)
		if d.Coordinated || d.NewTranslation != nil {
			systems = append(systems, s)
		}
	}
	return systems
}

// FleetSweep runs the fleet figure: every placement policy crossed
// with the FleetSystems axis (the THP baseline plus each coordinated
// or translation-replacing figure system), each cell one fleet under
// the same churn stream. The fleet is sized so placement pressure is
// real — some arrivals are rejected — which is where the policies
// differ. Cells run on the shared experiment grid, so Options.Parallel
// and Options.Trace compose as for every other figure (each cell's
// fleet steps its hosts sequentially inside its grid cell).
func FleetSweep(o Options) []FleetResult {
	hosts, arrivals := 6, 64
	hostMemMB := 1024
	if o.Quick {
		hosts, arrivals = 3, 24
		hostMemMB = 768
	}
	systems := FleetSystems()
	return runGrid(o, FleetPolicies(), systems,
		[]Setting{{Name: "churn"}},
		func(p string) string { return p },
		func(j gridJob[string]) FleetResult {
			res, err := fleet.Run(fleet.Config{
				Hosts:     hosts,
				HostMemMB: hostMemMB,
				System:    j.System,
				Policy:    j.Unit,
				Stream: FleetStreamConfig{
					Arrivals:         arrivals,
					MeanInterarrival: 6,
					MeanLifetime:     200,
				},
				Audit:    o.Audit,
				Parallel: 1, // the grid already parallelises across cells
				Seed:     o.seed(),
				Trace:    j.Trace,
			})
			if err != nil {
				panic(fmt.Sprintf("repro: fleet cell %s × %s: %v", j.Unit, j.System, err))
			}
			return res
		})
}

// FormatFleetTable renders fleet sweep rows as a fixed-width text
// table, one line per (policy × system) cell.
func FormatFleetTable(title string, rows []FleetResult) string {
	out := fmt.Sprintf("%s\n%-12s %-14s %8s %8s %8s %6s %10s %12s %10s %10s\n",
		title, "policy", "system", "placed", "rejected", "migr", "vms",
		"thpt", "mig_pages", "fmfi", "cov")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %-14s %8d %8d %8d %6d %10.2f %12d %10.4f %10.4f\n",
			r.Policy, r.System, r.Placed, r.Rejected, r.Migrations, r.ResidentVMs,
			r.Throughput, r.MigratedPages, r.MeanHostFMFI, r.HugeCoverage)
	}
	return out
}
