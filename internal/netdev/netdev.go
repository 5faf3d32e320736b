// Package netdev is the NETDEV component: the virtual network device
// driver of the NGINX deployment (Figure 5). The device moves Ethernet
// frames between component-visible simulated memory and the "wire" — a
// host-side frame queue representing the physical medium, which the load
// generator (siege) attaches to from outside the library OS, exactly like
// the external attacker-controlled input of the threat model.
package netdev

import (
	"cubicleos/internal/cubicle"
	"cubicleos/internal/vm"
)

// Name of the component in deployments.
const Name = "NETDEV"

// MTU is the maximum frame size on the wire (Ethernet payload).
const MTU = 1514

// driverWork models the per-frame driver path (descriptor ring handling,
// doorbell, interrupt coalescing share).
const driverWork = 1400

// Wire is the physical medium: frame queues between the device and the
// host-side peer. It is trusted-harness state (hardware), not cubicle
// memory.
//
// Frames are recycled through a per-wire free list of MTU-capacity
// buffers, so the wire allocates nothing in steady state. A frame
// returned by HostRecv is lent to the caller until its next HostRecv
// call; every other frame is owned by the wire.
type Wire struct {
	toHost, toDevice frameQueue
	// free holds recycled MTU-capacity frames. A plain list, not a
	// sync.Pool: each wire has one owner, and a list keeps allocation
	// counts deterministic.
	free [][]byte
	// lent is the frame HostRecv handed out last, recycled on the next call.
	lent []byte
	// Cap bounds each direction's queue in frames (0 = unbounded, the
	// seed behaviour). A full receive queue drops host frames like a NIC
	// ring overflow; a full transmit queue pushes EAGAIN back into the
	// stack.
	Cap int
	// FramesOut / FramesIn count frames for the experiment reports.
	FramesOut, FramesIn uint64
	// BytesOut / BytesIn count payload bytes.
	BytesOut, BytesIn uint64
	// DropsIn counts host frames dropped at a full receive queue;
	// DropsOut counts device transmits refused at a full send queue.
	DropsIn, DropsOut uint64
	// InjectedDropsIn / InjectedDropsOut count frames the dropper lost in
	// flight (seeded chaos, not queue pressure) per direction.
	InjectedDropsIn, InjectedDropsOut uint64

	// dropper, when set, is consulted once per frame in each direction;
	// true loses the frame in flight (see SetDropper).
	dropper func() bool
}

// frameQueue is a FIFO of frames that pops by head index, so a queue
// that keeps draining reuses its backing array instead of reslicing it
// away.
type frameQueue struct {
	q    [][]byte
	head int
}

func (fq *frameQueue) len() int { return len(fq.q) - fq.head }

func (fq *frameQueue) push(f []byte) {
	if fq.head > 0 && len(fq.q) == cap(fq.q) {
		// Full backing array with dead slots at the front: compact rather
		// than grow.
		n := copy(fq.q, fq.q[fq.head:])
		clear(fq.q[n:])
		fq.q, fq.head = fq.q[:n], 0
	}
	fq.q = append(fq.q, f)
}

// peek returns the head frame without removing it; the queue must not be
// empty.
func (fq *frameQueue) peek() []byte { return fq.q[fq.head] }

func (fq *frameQueue) pop() []byte {
	f := fq.q[fq.head]
	fq.q[fq.head] = nil
	if fq.head++; fq.head == len(fq.q) {
		fq.q, fq.head = fq.q[:0], 0
	}
	return f
}

// frame returns an n-byte frame, recycled from the free list when one is
// available. Frames larger than the MTU (hostile host input) are
// allocated exactly and never pooled.
func (w *Wire) frame(n int) []byte {
	if n > MTU {
		return make([]byte, n)
	}
	if k := len(w.free); k > 0 {
		f := w.free[k-1]
		w.free = w.free[:k-1]
		return f[:n]
	}
	return make([]byte, n, MTU)
}

// recycle returns a frame to the free list.
func (w *Wire) recycle(f []byte) {
	if cap(f) == MTU {
		w.free = append(w.free, f[:0])
	}
}

// SetDropper installs fn as the wire's in-flight loss decision: it is
// consulted once per frame in each direction (host→device before the
// frame reaches the receive queue, device→host after the device believes
// the transmit succeeded — real wire loss is invisible to the sender).
// Implementations are seeded injector streams (faultinject.AtWire) so the
// drop schedule is a deterministic function of the frame sequence. nil
// detaches.
func (w *Wire) SetDropper(fn func() bool) { w.dropper = fn }

// HostSend injects a frame from the host side (load generator). The wire
// copies it, so the caller may reuse frame at once. When the bounded
// receive queue is full the frame is dropped — the silicon has no flow
// control to the wire, exactly like a NIC ring overflow.
func (w *Wire) HostSend(frame []byte) {
	if w.dropper != nil && w.dropper() {
		// Lost in flight before reaching the NIC: the host-side sender has
		// no way to know (no wire-level flow control), the device never
		// sees an arrival.
		w.InjectedDropsIn++
		return
	}
	if w.Cap > 0 && w.toDevice.len() >= w.Cap {
		w.DropsIn++
		return
	}
	f := w.frame(len(frame))
	copy(f, frame)
	w.toDevice.push(f)
	w.FramesIn++
	w.BytesIn += uint64(len(frame))
}

// HostRecv pops a frame destined for the host side, or nil. The frame is
// lent: it stays valid until the next HostRecv call, which recycles it.
func (w *Wire) HostRecv() []byte {
	if w.lent != nil {
		w.recycle(w.lent)
		w.lent = nil
	}
	if w.toHost.len() == 0 {
		return nil
	}
	w.lent = w.toHost.pop()
	return w.lent
}

// HostPending returns the number of frames waiting for the host.
func (w *Wire) HostPending() int { return w.toHost.len() }

// Module is the NETDEV component state.
type Module struct {
	wire    *Wire
	staging vm.Addr // device-owned DMA bounce buffer (one MTU frame)
}

// New creates the device attached to a fresh wire.
func New() *Module { return &Module{wire: &Wire{}} }

// Wire returns the device's wire for host-side attachment.
func (d *Module) Wire() *Wire { return d.wire }

// ensureStaging allocates the device's DMA bounce buffer on first use
// (device-owned pages).
func (d *Module) ensureStaging(e *cubicle.Env) {
	if d.staging == 0 {
		d.staging = e.HeapAlloc(2 * vm.PageSize)
	}
}

// tx transmits a frame from caller memory: DMA-copies it through the
// device bounce buffer onto the wire. The caller must have opened a
// window over the frame buffer for NETDEV. Returns bytes sent and errno.
func (d *Module) tx(e *cubicle.Env, ptr, n uint64) (uint64, uint64) {
	e.Work(driverWork)
	if n == 0 || n > MTU {
		return 0, 22 // EINVAL
	}
	w := d.wire
	if w.Cap > 0 && w.toHost.len() >= w.Cap {
		// Bounded transmit queue: explicit backpressure to the stack
		// instead of unbounded growth.
		w.DropsOut++
		return 0, 11 // EAGAIN
	}
	d.ensureStaging(e)
	e.Memcpy(d.staging, vm.Addr(ptr), n)
	frame := w.frame(int(n))
	e.Read(d.staging, frame)
	w.FramesOut++
	w.BytesOut += n
	if w.dropper != nil && w.dropper() {
		// Lost in flight after leaving the device: the transmit succeeded
		// as far as the stack can tell, the peer never sees the frame.
		w.InjectedDropsOut++
		w.recycle(frame)
		return n, 0
	}
	w.toHost.push(frame)
	return n, 0
}

// rx receives the next pending frame into caller memory; returns the
// frame length (0 when no frame is pending) and errno.
func (d *Module) rx(e *cubicle.Env, ptr, maxLen uint64) (uint64, uint64) {
	e.Work(driverWork)
	w := d.wire
	if w.toDevice.len() == 0 {
		return 0, 0
	}
	if uint64(len(w.toDevice.peek())) > maxLen {
		return 0, 22
	}
	frame := w.toDevice.pop()
	d.ensureStaging(e)
	e.Write(d.staging, frame)
	e.Memcpy(vm.Addr(ptr), d.staging, uint64(len(frame)))
	w.recycle(frame)
	return uint64(len(frame)), 0
}

// Component returns the NETDEV component for the builder.
func (d *Module) Component() *cubicle.Component {
	return &cubicle.Component{
		Name: Name,
		Kind: cubicle.KindIsolated,
		Exports: []cubicle.ExportDecl{
			{Name: "netdev_tx", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				n, errno := d.tx(e, a[0], a[1])
				return []uint64{n, errno}
			}},
			{Name: "netdev_rx", RegArgs: 2, Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				n, errno := d.rx(e, a[0], a[1])
				return []uint64{n, errno}
			}},
			{Name: "netdev_rx_ready", Fn: func(e *cubicle.Env, a []uint64) []uint64 {
				e.Work(60)
				return []uint64{uint64(d.wire.toDevice.len()), 0}
			}},
		},
	}
}

// Client is typed access to NETDEV from another cubicle.
type Client struct {
	tx, rx, ready cubicle.Handle
}

// NewClient resolves NETDEV for a caller cubicle.
func NewClient(m *cubicle.Monitor, caller cubicle.ID) *Client {
	return &Client{
		tx:    m.MustResolve(caller, Name, "netdev_tx"),
		rx:    m.MustResolve(caller, Name, "netdev_rx"),
		ready: m.MustResolve(caller, Name, "netdev_rx_ready"),
	}
}

// Tx transmits n bytes at ptr; returns bytes sent and errno.
func (c *Client) Tx(e *cubicle.Env, ptr vm.Addr, n uint64) (uint64, uint64) {
	r := c.tx.Call(e, uint64(ptr), n)
	return r[0], r[1]
}

// Rx receives a frame into ptr; returns frame length (0 = none) and errno.
func (c *Client) Rx(e *cubicle.Env, ptr vm.Addr, maxLen uint64) (uint64, uint64) {
	r := c.rx.Call(e, uint64(ptr), maxLen)
	return r[0], r[1]
}

// RxReady returns the number of pending receive frames.
func (c *Client) RxReady(e *cubicle.Env) uint64 { return c.ready.Call(e)[0] }
