package netdev

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// DirectTx and DirectRx run the device's frame path without a crossing,
// so tests can count the path's own allocations apart from the crossing's
// argument and return slices.
func (d *Module) DirectTx(e *cubicle.Env, ptr vm.Addr, n uint64) (uint64, uint64) {
	return d.tx(e, uint64(ptr), n)
}

func (d *Module) DirectRx(e *cubicle.Env, ptr vm.Addr, maxLen uint64) (uint64, uint64) {
	return d.rx(e, uint64(ptr), maxLen)
}
