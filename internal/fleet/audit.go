package fleet

// Fleet-level invariants, implementing audit.Auditable over the
// cluster's cross-layer bookkeeping. The Scheduler audits itself
// (schedule.go); this file audits the seams the scheduler cannot see:
// that the simulated hosts actually hold what the scheduler thinks
// they hold, and that live migration conserves pages across host
// accounting.

import (
	"sort"

	"repro/internal/audit"
)

// CheckInvariants recomputes the fleet's cross-layer state and reports
// every discrepancy:
//
//   - everything the scheduler self-audits (sched-*);
//   - fleet-resident-placement: the resident VM set (fleet side) and
//     the placement map (scheduler side) must agree, VM by VM, on
//     existence and host; per-host resident lists must match too;
//   - fleet-reservation-sum: the demands of the VMs resident on each
//     host must sum to the scheduler's committed load for that host;
//   - fleet-migration-conservation: per-host migration page flows must
//     equal the fold of the migration log, pages out must equal pages
//     in overall, and each resident VM's EPT MigratedPages accounting
//     must cover the pages its inbound migrations absorbed.
func (f *Fleet) CheckInvariants() []audit.Violation {
	vs := f.sched.CheckInvariants()

	// Resident set vs placement map, both directions.
	ids := make([]int, 0, len(f.vms))
	for id := range f.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		v := f.vms[id]
		p, ok := f.sched.Lookup(id)
		switch {
		case !ok:
			vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", uint64(id),
				"VM %d is resident on host %d but has no reservation", id, v.host))
		case p.Host != v.host:
			vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", uint64(id),
				"VM %d runs on host %d but is reserved on host %d", id, v.host, p.Host))
		case p.D != v.flavor.Demand():
			vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", uint64(id),
				"VM %d reserves %+v but its flavor demands %+v", id, p.D, v.flavor.Demand()))
		}
	}
	loads := f.sched.Hosts()
	for _, h := range f.hosts {
		var sum Demand
		for _, id := range h.resident {
			v, ok := f.vms[id]
			if !ok {
				vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", uint64(id),
					"host %d lists VM %d but it is not live", h.id, id))
				continue
			}
			if v.host != h.id {
				vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", uint64(id),
					"host %d lists VM %d but the VM says host %d", h.id, id, v.host))
			}
			sum = sum.Add(v.flavor.Demand())
		}
		if sum != loads[h.id].Used {
			vs = append(vs, audit.Violationf("fleet", "fleet-reservation-sum", uint64(h.id),
				"host %d resident demands sum to %+v but scheduler committed %+v",
				h.id, sum, loads[h.id].Used))
		}
	}
	if got, want := len(f.vms), f.placed-f.departed; got != want {
		vs = append(vs, audit.Violationf("fleet", "fleet-resident-placement", 0,
			"%d VMs live but counters say %d placed - %d departed = %d",
			got, f.placed, f.departed, want))
	}

	// Migration conservation: fold the log and compare to the per-host
	// flow counters.
	in := make([]uint64, len(f.hosts))
	out := make([]uint64, len(f.hosts))
	for _, m := range f.migs {
		if m.From < 0 || m.From >= len(f.hosts) || m.To < 0 || m.To >= len(f.hosts) {
			vs = append(vs, audit.Violationf("fleet", "fleet-migration-conservation", uint64(m.VM),
				"migration of VM %d names hosts %d->%d outside the fleet", m.VM, m.From, m.To))
			continue
		}
		out[m.From] += m.Pages
		in[m.To] += m.Pages
	}
	for i := range f.hosts {
		if in[i] != f.pagesIn[i] || out[i] != f.pagesOut[i] {
			vs = append(vs, audit.Violationf("fleet", "fleet-migration-conservation", uint64(i),
				"host %d flows (in %d, out %d) but migration log folds to (in %d, out %d)",
				i, f.pagesIn[i], f.pagesOut[i], in[i], out[i]))
		}
	}
	if ti, to := sum(f.pagesIn), sum(f.pagesOut); ti != to {
		vs = append(vs, audit.Violationf("fleet", "fleet-migration-conservation", 0,
			"%d pages arrived but %d departed across the fleet", ti, to))
	}
	// A replica that migrated in must carry at least the pages its
	// inbound copy absorbed in its EPT migration accounting
	// (AbsorbMigration booked them there; the layer may add more for
	// intra-host movement, never less).
	for _, id := range ids {
		v := f.vms[id]
		if v.VM.EPT.Stats.MigratedPages < v.absorbed {
			vs = append(vs, audit.Violationf("fleet", "fleet-migration-conservation", uint64(id),
				"VM %d absorbed %d migrated pages but books only %d",
				id, v.absorbed, v.VM.EPT.Stats.MigratedPages))
		}
	}
	return vs
}
