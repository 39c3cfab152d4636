package fleet

// Flight-recorder gauge capture for fleet runs, through the engine's
// sampler (sim.AllocatorSample, sim.Guest.Sample) with one twist:
// host-allocator rows use VM = -(1+host) instead of the engine's -1,
// so per-host series stay distinguishable after shards merge
// (MergeShards re-stamps the Run tag when fleet results are folded into
// a sweep recorder, but the VM column survives every merge).

import "repro/internal/sim"

// HostScope returns the sample VM tag for host id's allocator rows.
func HostScope(id int) int { return -(1 + id) }

// captureHost snapshots one host: its buddy allocator and every
// resident VM's gauges, in VM-id order, into the host's shard.
func (f *Fleet) captureHost(h *host) {
	h.rec.AddSample(sim.AllocatorSample(HostScope(h.id), h.m.HostBuddy))
	for _, id := range h.resident {
		h.rec.AddSample(f.vms[id].Sample(id))
	}
}
