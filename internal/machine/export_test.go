package machine

import "repro/internal/mem"

// AccessRun runs the first-touch run path on the front of gvas, as a
// walk-cache miss in AccessN would, and returns its cycles and how
// many accesses it served (0: it declined). Like AccessN it tries a
// run only when the second access is to the next page. The empty
// AccessN brings the walk cache up to date first.
func (vm *VM) AccessRun(gvas []uint64) (uint64, int) {
	vm.AccessN(gvas[:0])
	if len(gvas) < 2 || gvas[1]>>mem.PageShift != gvas[0]>>mem.PageShift+1 {
		return 0, 0
	}
	return vm.accessRun(gvas)
}

// WalkCacheServes reports whether an access to gva now would be served
// by the walk cache, from its region entry or its page entry, without
// walking either table. It brings the stamps up to date first, as
// AccessN does before its first probe.
func (vm *VM) WalkCacheServes(gva uint64) bool {
	if vm.wc.entries == nil {
		return false
	}
	vm.wcRevalidate()
	return vm.wcHits(gva)
}
