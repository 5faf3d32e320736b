package lwip

import (
	"bytes"

	"cubicleos/internal/netdev"
)

// Peer is the host-side TCP endpoint: the network client that load
// generators (siege, test harnesses) use to talk to the library OS over
// the NETDEV wire. It lives entirely outside the simulated machine —
// exactly like the external clients of the paper's evaluation — so its
// processing costs nothing on the virtual clock.
//
// The peer allocates nothing per frame once warm: outbound frames are
// encoded into one scratch buffer (the wire copies them), and received
// payloads are copied into fixed-size chunks drawn from a per-peer free
// list until PeerConn.Received folds them into the connection's
// contiguous buffer and returns them.
type Peer struct {
	w        *netdev.Wire
	conns    map[uint16]*PeerConn // keyed by the peer-side port
	nextPort uint16
	// Window is the receive window the peer advertises to the server.
	Window uint32
	// ackq lists connections owing a deferred window-update ACK, in the
	// order the data arrived. Draining this instead of scanning conns keeps
	// Pump O(live traffic) regardless of how many connections the load
	// generator has opened, and emits the deferred ACKs in a deterministic
	// order (map iteration order is not).
	ackq []*PeerConn
	// Malformed counts frames dropped because they are shorter than a
	// header or their header Len overruns the frame.
	Malformed uint64

	scratch []byte   // outbound frame encode buffer
	chunks  [][]byte // free receive chunks, each recvChunk bytes of capacity
}

// recvChunk is the capacity of one receive chunk.
const recvChunk = 16 << 10

// NewPeer attaches a host peer to the wire.
func NewPeer(w *netdev.Wire) *Peer {
	return &Peer{w: w, conns: make(map[uint16]*PeerConn), nextPort: 40000, Window: 1 << 20,
		scratch: make([]byte, HdrSize+MSS)}
}

// PeerConn is one host-side TCP connection.
type PeerConn struct {
	p                    *Peer
	localPort            uint16 // peer side
	remotePort           uint16 // server side
	sndNxt               uint32
	rcvNxt               uint32
	lastAcked            uint32
	srvWnd               uint32
	Established, FinRcvd bool
	// recv is the contiguous received stream, append-only; parts holds
	// bytes received since the last Received call, in peer-pool chunks.
	recv  []byte
	parts [][]byte
	// pending holds outbound application data not yet sent to the wire
	// (respecting the server's advertised receive window).
	pending []byte
	unacked uint32
	// ackQueued marks the connection as already on the peer's deferred-ACK
	// queue; released marks it detached by Release.
	ackQueued, released bool
}

// Connect sends a SYN to the given server port and returns the connection
// (not yet established until Pump processes the SYN-ACK).
func (p *Peer) Connect(serverPort uint16) *PeerConn {
	c := &PeerConn{p: p, localPort: p.nextPort, remotePort: serverPort, srvWnd: 64 << 10}
	p.nextPort++
	p.conns[c.localPort] = c
	p.send(c, FlagSYN, nil)
	c.sndNxt++
	return c
}

// send emits one frame from the peer to the server. The payload is at
// most one MSS (flush segments at the MSS).
func (p *Peer) send(c *PeerConn, flags uint8, payload []byte) {
	frame := p.scratch[:HdrSize+len(payload)]
	EncodeHeader(frame, Header{
		SrcPort: c.localPort, DstPort: c.remotePort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: flags,
		Wnd: p.Window, Len: uint16(len(payload)),
	})
	copy(frame[HdrSize:], payload)
	p.w.HostSend(frame)
}

// Pump processes every frame the server has put on the wire; returns the
// number of frames handled.
func (p *Peer) Pump() int {
	n := 0
	for {
		f := p.w.HostRecv()
		if f == nil {
			// Drained: send any deferred window-update acknowledgements, in
			// data-arrival order.
			for _, c := range p.ackq {
				c.ackQueued = false
				if !c.released && c.rcvNxt != c.lastAcked {
					p.send(c, FlagACK, nil)
					c.lastAcked = c.rcvNxt
				}
			}
			p.ackq = p.ackq[:0]
			return n
		}
		n++
		if len(f) < HdrSize {
			p.Malformed++
			continue
		}
		h := DecodeHeader(f)
		if int(h.Len) > len(f)-HdrSize {
			p.Malformed++
			continue
		}
		c, ok := p.conns[h.DstPort]
		if !ok {
			continue
		}
		c.srvWnd = h.Wnd
		if h.Flags&FlagACK != 0 {
			if int32(h.Ack-(c.sndNxt-c.unacked)) > 0 {
				acked := h.Ack - (c.sndNxt - c.unacked)
				if acked > c.unacked {
					acked = c.unacked
				}
				c.unacked -= acked
			}
		}
		if h.Flags&FlagSYN != 0 {
			c.rcvNxt = h.Seq + 1
			c.Established = true
			p.send(c, FlagACK, nil)
			// The handshake ACK intentionally leaves lastAcked behind, so
			// the drain below re-acknowledges once more: the peer has always
			// confirmed its receive window right after establishment, and
			// the figure goldens pin that frame sequence.
			if !c.ackQueued {
				c.ackQueued = true
				p.ackq = append(p.ackq, c)
			}
			continue
		}
		if h.Len > 0 && h.Seq == c.rcvNxt {
			c.store(f[HdrSize : HdrSize+int(h.Len)])
			c.rcvNxt += uint32(h.Len)
		}
		if h.Flags&FlagFIN != 0 && h.Seq == c.rcvNxt {
			c.rcvNxt++
			c.FinRcvd = true
		}
		// Delayed acknowledgements: ack immediately on FIN or after four
		// full segments; otherwise acknowledge once the pump drains
		// (below), as real TCP receivers do.
		if c.FinRcvd || c.rcvNxt-c.lastAcked >= 4*MSS {
			p.send(c, FlagACK, nil)
			c.lastAcked = c.rcvNxt
		} else if c.rcvNxt != c.lastAcked && !c.ackQueued {
			c.ackQueued = true
			p.ackq = append(p.ackq, c)
		}
		// Window may have opened: push pending data.
		c.flush()
	}
}

// Send queues application data toward the server; data beyond the
// server's advertised window is held back until ACKs open it.
func (c *PeerConn) Send(data []byte) {
	c.pending = append(c.pending, data...)
	c.flush()
}

func (c *PeerConn) flush() {
	for len(c.pending) > 0 {
		wnd := int(c.srvWnd) - int(c.unacked)
		if wnd <= 0 {
			return
		}
		n := len(c.pending)
		if n > MSS {
			n = MSS
		}
		if n > wnd {
			n = wnd
		}
		c.p.send(c, FlagACK, c.pending[:n])
		c.sndNxt += uint32(n)
		c.unacked += uint32(n)
		c.pending = c.pending[n:]
	}
}

// Close sends a FIN.
func (c *PeerConn) Close() {
	c.p.send(c, FlagFIN|FlagACK, nil)
	c.sndNxt++
}

// Release detaches a finished connection from the peer so its state can
// be collected: frames still in flight for the port are dropped, exactly
// like a closed socket. Received data stays readable. Without this a
// long-running load generator accretes one dead PeerConn per request and
// every Pump drain walks them all.
func (c *PeerConn) Release() {
	if c.released {
		return
	}
	c.released = true
	delete(c.p.conns, c.localPort)
}

// store copies received payload bytes into the connection's chunks.
func (c *PeerConn) store(b []byte) {
	for len(b) > 0 {
		k := len(c.parts)
		if k == 0 || len(c.parts[k-1]) == recvChunk {
			c.parts = append(c.parts, c.p.chunk())
			k++
		}
		last := c.parts[k-1]
		n := copy(last[len(last):recvChunk], b)
		c.parts[k-1] = last[:len(last)+n]
		b = b[n:]
	}
}

// chunk returns an empty receive chunk from the free list, or a new one.
func (p *Peer) chunk() []byte {
	if k := len(p.chunks); k > 0 {
		ch := p.chunks[k-1]
		p.chunks = p.chunks[:k-1]
		return ch
	}
	return make([]byte, 0, recvChunk)
}

// Received returns everything received so far, less what Discard has
// dropped, as one contiguous slice. The slice is read-only and the buffer
// behind it is append-only: bytes already returned are never rewritten,
// so slices taken from an earlier call stay valid as more data arrives,
// after Discard, and after Release. The first call builds the buffer at
// its exact size; later calls append what arrived since. Either way the
// receive chunks go back to the peer's free list.
func (c *PeerConn) Received() []byte {
	if len(c.parts) == 0 {
		return c.recv
	}
	if c.recv == nil {
		c.recv = bytes.Join(c.parts, nil)
	} else {
		for _, ch := range c.parts {
			c.recv = append(c.recv, ch...)
		}
	}
	for i, ch := range c.parts {
		c.p.chunks = append(c.p.chunks, ch[:0])
		c.parts[i] = nil
	}
	c.parts = c.parts[:0]
	return c.recv
}

// Discard drops the first n bytes of Received, which a reader has
// consumed, so a long-lived connection holds only its unread tail. The
// bytes are resliced away, not overwritten: slices of them handed out
// earlier stay valid. n beyond what Received last returned is clamped.
func (c *PeerConn) Discard(n int) {
	c.recv = c.recv[min(n, len(c.recv)):]
}

// ReceivedLen returns the number of bytes Received would return.
func (c *PeerConn) ReceivedLen() int {
	n := len(c.recv)
	for _, ch := range c.parts {
		n += len(ch)
	}
	return n
}
