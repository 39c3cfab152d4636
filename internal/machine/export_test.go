package machine

import "repro/internal/mem"

// AccessRun runs the first-touch run path on the front of gvas, as a
// walk-cache miss in AccessN would, and returns its cycles and how
// many accesses it served (0: it declined). Like AccessN it tries a
// run only when the second access is to the next page. The empty
// AccessN arms the batch buffers and brings the walk cache up to date
// first.
func (vm *VM) AccessRun(gvas []uint64) (uint64, int) {
	vm.AccessN(gvas[:0])
	if len(gvas) < 2 || gvas[1]>>mem.PageShift != gvas[0]>>mem.PageShift+1 {
		return 0, 0
	}
	return vm.accessRun(gvas)
}
