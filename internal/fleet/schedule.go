package fleet

// Online 2D vector-bin-packing placement (SNIPPETS.md Snippet 3): hosts
// are bins with a CPU x RAM capacity vector, VMs are demand vectors,
// and arrival events must be placed immediately and irrevocably (or
// rejected) in chronological order. The Scheduler here is deliberately
// pure — no machines, no allocators, integer arithmetic only — so the
// placement logic can be fuzzed and property-tested in isolation from
// the simulation it steers.

import (
	"fmt"
	"sort"

	"repro/internal/audit"
)

// Demand is a 2D resource vector: vCPUs and memory in MiB. It doubles
// as a capacity vector for hosts.
type Demand struct {
	CPU   int
	RAMMB int
}

// Add returns d + o.
func (d Demand) Add(o Demand) Demand { return Demand{d.CPU + o.CPU, d.RAMMB + o.RAMMB} }

// Sub returns d - o.
func (d Demand) Sub(o Demand) Demand { return Demand{d.CPU - o.CPU, d.RAMMB - o.RAMMB} }

// HostLoad is one host's capacity vector and current committed load.
type HostLoad struct {
	Cap  Demand
	Used Demand
}

// Fits reports whether demand d fits in the host's remaining capacity.
func (h HostLoad) Fits(d Demand) bool {
	return h.Used.CPU+d.CPU <= h.Cap.CPU && h.Used.RAMMB+d.RAMMB <= h.Cap.RAMMB
}

// FragInfo is the per-host signal vector placement policies read
// before placing: the host allocator's FMFI at the huge order, the EPT
// huge-page coverage across the host's resident VMs, and — on fleets
// with the elasticity tier armed (DESIGN.md §10) — the pages the host
// currently has swapped out, the clearest sign it is struggling under
// memory pressure. SwappedPages is always zero on non-overcommitted
// fleets.
type FragInfo struct {
	FMFI         float64
	HugeCoverage float64
	SwappedPages uint64
}

// PlacementPolicy chooses a host for one demand vector. Choose returns
// the index of a host satisfying hosts[i].Fits(d), or -1 to reject.
// frag carries per-host fragmentation signals and may be nil when the
// caller has none (pure scheduling tests); policies must tolerate that.
// Policies are pure functions of their arguments, so scheduling is
// deterministic by construction.
type PlacementPolicy interface {
	Name() string
	Choose(d Demand, hosts []HostLoad, frag []FragInfo) int
}

// FirstFit places on the lowest-indexed host with room.
type FirstFit struct{}

// Name identifies the policy.
func (FirstFit) Name() string { return "first-fit" }

// Choose returns the first feasible host.
func (FirstFit) Choose(d Demand, hosts []HostLoad, _ []FragInfo) int {
	for i, h := range hosts {
		if h.Fits(d) {
			return i
		}
	}
	return -1
}

// BestFit places on the feasible host that the demand fills tightest:
// it minimises the norm of the normalised residual-capacity vector
// after placement, so load concentrates and whole hosts stay free for
// large VMs. Scoring is exact integer arithmetic (the division by
// capacity is cleared by cross-multiplication), so ties and orderings
// are bit-stable across platforms.
type BestFit struct{}

// Name identifies the policy.
func (BestFit) Name() string { return "best-fit" }

// Choose returns the feasible host with minimal residual score,
// breaking ties toward the lower index.
func (BestFit) Choose(d Demand, hosts []HostLoad, _ []FragInfo) int {
	best, bestScore := -1, int64(0)
	for i, h := range hosts {
		if !h.Fits(d) {
			continue
		}
		s := residualScore(h, d)
		if best < 0 || s < bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// residualScore is |(rc/Cc, rm/Cm)|^2 scaled by (Cc*Cm)^2, where
// (rc, rm) is the residual capacity after placing d: the squared norm
// of the normalised residual vector, cleared of divisions. Capacities
// are bounded by Config.Validate (CPU <= 2^12, RAM <= 2^20 MiB) so the
// sum stays well inside int64.
func residualScore(h HostLoad, d Demand) int64 {
	rc := int64(h.Cap.CPU - h.Used.CPU - d.CPU)
	rm := int64(h.Cap.RAMMB - h.Used.RAMMB - d.RAMMB)
	cc := int64(h.Cap.CPU)
	cm := int64(h.Cap.RAMMB)
	return rc*rc*cm*cm + rm*rm*cc*cc
}

// FragAware is the fragmentation-aware policy: among feasible hosts it
// prefers the least fragmented host allocator (lowest FMFI at the huge
// order — the best odds that the new VM's EPT backing coalesces), then
// the highest existing huge-page coverage (evidence coalescing is
// keeping up there), then the best-fit residual score, then the index.
type FragAware struct{}

// Name identifies the policy.
func (FragAware) Name() string { return "frag-aware" }

// Choose returns the feasible host minimising (FMFI, -coverage,
// residual score, index), treating a nil frag slice as all-zero
// signals (which reduces the policy to best-fit with first-fit ties).
func (FragAware) Choose(d Demand, hosts []HostLoad, frag []FragInfo) int {
	best := -1
	var bf FragInfo
	var bestScore int64
	for i, h := range hosts {
		if !h.Fits(d) {
			continue
		}
		var fi FragInfo
		if i < len(frag) {
			fi = frag[i]
		}
		s := residualScore(h, d)
		if best < 0 || fi.FMFI < bf.FMFI ||
			(fi.FMFI == bf.FMFI && fi.HugeCoverage > bf.HugeCoverage) ||
			(fi.FMFI == bf.FMFI && fi.HugeCoverage == bf.HugeCoverage && s < bestScore) {
			best, bf, bestScore = i, fi, s
		}
	}
	return best
}

// PressureAware is the elasticity-aware policy (DESIGN.md §10): among
// feasible hosts it avoids hosts already paging (fewest swapped-out
// pages first — placing onto a thrashing host makes every resident VM
// pay swap-in latency), then falls back to the best-fit residual
// score, then the index. On fleets without the elasticity tier every
// SwappedPages signal is zero and the policy reduces to best-fit with
// first-fit ties.
type PressureAware struct{}

// Name identifies the policy.
func (PressureAware) Name() string { return "pressure-aware" }

// Choose returns the feasible host minimising (SwappedPages, residual
// score, index), treating a nil frag slice as all-zero signals.
func (PressureAware) Choose(d Demand, hosts []HostLoad, frag []FragInfo) int {
	best := -1
	var bestSwapped uint64
	var bestScore int64
	for i, h := range hosts {
		if !h.Fits(d) {
			continue
		}
		var fi FragInfo
		if i < len(frag) {
			fi = frag[i]
		}
		s := residualScore(h, d)
		if best < 0 || fi.SwappedPages < bestSwapped ||
			(fi.SwappedPages == bestSwapped && s < bestScore) {
			best, bestSwapped, bestScore = i, fi.SwappedPages, s
		}
	}
	return best
}

// Policies lists every placement policy in canonical order.
func Policies() []PlacementPolicy {
	return []PlacementPolicy{FirstFit{}, BestFit{}, FragAware{}, PressureAware{}}
}

// PolicyNames lists the canonical policy names.
func PolicyNames() []string {
	ps := Policies()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name()
	}
	return out
}

// PolicyByName resolves a canonical policy name.
func PolicyByName(name string) (PlacementPolicy, error) {
	for _, p := range Policies() {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fleet: unknown placement policy %q (have %v)", name, PolicyNames())
}

// Placement records where an accepted VM lives and what it reserved.
type Placement struct {
	Host int
	D    Demand
}

// SchedStats counts scheduler decisions.
type SchedStats struct {
	// Placed counts accepted arrivals (never decremented).
	Placed int
	// Rejected counts arrivals no host could hold.
	Rejected int
	// Departed counts releases.
	Departed int
	// Migrations counts placements moved between hosts.
	Migrations int
}

// Scheduler is the online placement bookkeeper: per-host committed
// load, the placement map, and decision counters. It is pure state —
// callers drive it from an event stream and mirror its decisions onto
// simulated hosts. Methods panic on caller bugs (duplicate placement,
// migrating an unknown VM) and return ok=false on legitimate outcomes
// (rejection, releasing an unknown VM).
type Scheduler struct {
	pol    PlacementPolicy
	hosts  []HostLoad
	placed map[int]Placement
	// Stats counts decisions; CheckInvariants cross-checks it against
	// the placement map.
	Stats SchedStats
}

// NewScheduler builds a scheduler over hosts with the given capacity
// vectors.
func NewScheduler(pol PlacementPolicy, caps []Demand) *Scheduler {
	s := &Scheduler{pol: pol, placed: make(map[int]Placement)}
	for _, c := range caps {
		s.hosts = append(s.hosts, HostLoad{Cap: c})
	}
	return s
}

// Policy returns the placement policy in use.
func (s *Scheduler) Policy() PlacementPolicy { return s.pol }

// Hosts returns a copy of the per-host loads.
func (s *Scheduler) Hosts() []HostLoad {
	out := make([]HostLoad, len(s.hosts))
	copy(out, s.hosts)
	return out
}

// Lookup returns the placement of an accepted, still-resident VM.
func (s *Scheduler) Lookup(vm int) (Placement, bool) {
	p, ok := s.placed[vm]
	return p, ok
}

// Place runs the policy for one arriving VM and commits the result.
// It returns the chosen host and true, or -1 and false on rejection.
// Placing a VM id that is already placed panics; a policy returning an
// infeasible or out-of-range host panics (policy bug, caught by fuzz).
func (s *Scheduler) Place(vm int, d Demand, frag []FragInfo) (int, bool) {
	if _, dup := s.placed[vm]; dup {
		panic(fmt.Sprintf("fleet: VM %d placed twice", vm))
	}
	i := s.pol.Choose(d, s.hosts, frag)
	if i < 0 {
		s.Stats.Rejected++
		return -1, false
	}
	if i >= len(s.hosts) || !s.hosts[i].Fits(d) {
		panic(fmt.Sprintf("fleet: policy %s chose infeasible host %d for %+v", s.pol.Name(), i, d))
	}
	s.hosts[i].Used = s.hosts[i].Used.Add(d)
	s.placed[vm] = Placement{Host: i, D: d}
	s.Stats.Placed++
	return i, true
}

// Release frees an accepted VM's reservation (departure). It returns
// the placement it released, or ok=false when the VM was never placed
// (e.g. its arrival was rejected).
func (s *Scheduler) Release(vm int) (Placement, bool) {
	p, ok := s.placed[vm]
	if !ok {
		return Placement{}, false
	}
	s.hosts[p.Host].Used = s.hosts[p.Host].Used.Sub(p.D)
	delete(s.placed, vm)
	s.Stats.Departed++
	return p, true
}

// Migrate moves an accepted VM's reservation to host dst, which must
// have room for it. The caller performs the actual page movement.
func (s *Scheduler) Migrate(vm, dst int) error {
	p, ok := s.placed[vm]
	if !ok {
		return fmt.Errorf("fleet: migrate of unplaced VM %d", vm)
	}
	if dst < 0 || dst >= len(s.hosts) {
		return fmt.Errorf("fleet: migrate destination %d out of range", dst)
	}
	if dst == p.Host {
		return fmt.Errorf("fleet: VM %d is already on host %d", vm, dst)
	}
	if !s.hosts[dst].Fits(p.D) {
		return fmt.Errorf("fleet: host %d cannot hold %+v", dst, p.D)
	}
	s.hosts[p.Host].Used = s.hosts[p.Host].Used.Sub(p.D)
	s.hosts[dst].Used = s.hosts[dst].Used.Add(p.D)
	p.Host = dst
	s.placed[vm] = p
	s.Stats.Migrations++
	return nil
}

// CheckInvariants recomputes the scheduler's state from the placement
// map and reports every discrepancy against the incremental
// bookkeeping:
//
//   - sched-recompute: a host's Used differs from the sum of the
//     reservations placed on it;
//   - sched-overcommit: a host's Used exceeds its capacity;
//   - sched-negative: a load or reservation went negative;
//   - sched-host-range: a placement names a host that does not exist;
//   - sched-count: the placement map size disagrees with the decision
//     counters (Placed - Departed).
func (s *Scheduler) CheckInvariants() []audit.Violation {
	var vs []audit.Violation
	sum := make([]Demand, len(s.hosts))
	ids := make([]int, 0, len(s.placed))
	for id := range s.placed {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := s.placed[id]
		if p.Host < 0 || p.Host >= len(s.hosts) {
			vs = append(vs, audit.Violationf("sched", "sched-host-range", uint64(id),
				"VM %d placed on host %d of %d", id, p.Host, len(s.hosts)))
			continue
		}
		if p.D.CPU < 0 || p.D.RAMMB < 0 {
			vs = append(vs, audit.Violationf("sched", "sched-negative", uint64(id),
				"VM %d reserves %+v", id, p.D))
		}
		sum[p.Host] = sum[p.Host].Add(p.D)
	}
	for i, h := range s.hosts {
		if h.Used != sum[i] {
			vs = append(vs, audit.Violationf("sched", "sched-recompute", uint64(i),
				"host %d used %+v but placements sum to %+v", i, h.Used, sum[i]))
		}
		if h.Used.CPU > h.Cap.CPU || h.Used.RAMMB > h.Cap.RAMMB {
			vs = append(vs, audit.Violationf("sched", "sched-overcommit", uint64(i),
				"host %d used %+v exceeds capacity %+v", i, h.Used, h.Cap))
		}
		if h.Used.CPU < 0 || h.Used.RAMMB < 0 {
			vs = append(vs, audit.Violationf("sched", "sched-negative", uint64(i),
				"host %d used %+v", i, h.Used))
		}
	}
	if got, want := len(s.placed), s.Stats.Placed-s.Stats.Departed; got != want {
		vs = append(vs, audit.Violationf("sched", "sched-count", 0,
			"%d placements resident but counters say %d placed - %d departed = %d",
			got, s.Stats.Placed, s.Stats.Departed, want))
	}
	return vs
}
