package netdev_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

// TestWireAllocFree: once the wire's frame free list and the peer's chunk
// free list are warm, moving a frame in either direction allocates
// nothing. Device→host: a full-MSS data segment is transmitted into a
// pooled frame, lent to the peer by HostRecv and copied into a receive
// chunk by Pump (whose window-update ACK is drained back through the
// device). Host→device: a peer ACK is copied into a pooled frame by
// HostSend and recycled by the device receive.
func TestWireAllocFree(t *testing.T) {
	s, _ := bootNet(t)
	d, w := s.Netdev, s.Netdev.Wire()
	peer := lwip.NewPeer(w)
	err := s.RunAs(netdev.Name, func(e *cubicle.Env) {
		out := e.HeapAlloc(2 * vm.PageSize)
		in := e.HeapAlloc(2 * vm.PageSize)
		drain := func() {
			for {
				if n, _ := d.DirectRx(e, in, 2*vm.PageSize); n == 0 {
					return
				}
			}
		}
		// Play the server: read the peer's SYN and answer it.
		conn := peer.Connect(80)
		if n, _ := d.DirectRx(e, in, 2*vm.PageSize); n != lwip.HdrSize {
			t.Fatalf("SYN frame of %d bytes", n)
		}
		var hb [lwip.HdrSize]byte
		e.Read(in, hb[:])
		syn := lwip.DecodeHeader(hb[:])
		h := lwip.Header{SrcPort: 80, DstPort: syn.SrcPort, Seq: 1000, Ack: syn.Seq + 1,
			Flags: lwip.FlagSYN | lwip.FlagACK, Wnd: 64 << 10}
		lwip.EncodeHeader(hb[:], h)
		e.Write(out, hb[:])
		d.DirectTx(e, out, lwip.HdrSize)
		peer.Pump()
		drain()
		if !conn.Established {
			t.Fatal("handshake failed")
		}

		h.Seq++
		h.Flags = lwip.FlagACK
		h.Len = lwip.MSS
		e.Write(out.Add(lwip.HdrSize), bytes.Repeat([]byte{'x'}, lwip.MSS))
		segment := func() {
			lwip.EncodeHeader(hb[:], h)
			e.Write(out, hb[:])
			d.DirectTx(e, out, lwip.HdrSize+lwip.MSS)
			peer.Pump()
			drain()
			h.Seq += lwip.MSS
		}
		// Warm the chunk pool and the connection's chunk list beyond what
		// the measured runs need, then hand the chunks back.
		for i := 0; i < 64; i++ {
			segment()
		}
		if got := len(conn.Received()); got != 64*lwip.MSS {
			t.Fatalf("received %d bytes, want %d", got, 64*lwip.MSS)
		}
		if a := testing.AllocsPerRun(50, segment); a != 0 {
			t.Errorf("device→host full-MSS frame: %v allocs, want 0", a)
		}
		if got := conn.ReceivedLen(); got != (64+51)*lwip.MSS {
			t.Fatalf("received %d bytes, want %d", got, (64+51)*lwip.MSS)
		}

		ack := make([]byte, lwip.HdrSize)
		lwip.EncodeHeader(ack, lwip.Header{SrcPort: syn.SrcPort, DstPort: 80, Flags: lwip.FlagACK, Wnd: 1 << 20})
		hostToDevice := func() {
			w.HostSend(ack)
			if n, _ := d.DirectRx(e, in, 2*vm.PageSize); n != lwip.HdrSize {
				t.Fatalf("device received %d bytes, want %d", n, lwip.HdrSize)
			}
		}
		if a := testing.AllocsPerRun(100, hostToDevice); a != 0 {
			t.Errorf("host→device ACK: %v allocs, want 0", a)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestHostRecvLendsUntilNextCall: a frame from HostRecv is recycled by the
// next HostRecv, so the wire's next transmit reuses its storage rather
// than allocating.
func TestHostRecvLendsUntilNextCall(t *testing.T) {
	s, _ := bootNet(t)
	d, w := s.Netdev, s.Netdev.Wire()
	err := s.RunAs(netdev.Name, func(e *cubicle.Env) {
		buf := e.HeapAlloc(vm.PageSize)
		e.Write(buf, []byte("first"))
		d.DirectTx(e, buf, 5)
		f := w.HostRecv()
		if string(f) != "first" {
			t.Fatalf("HostRecv = %q", f)
		}
		if w.HostRecv() != nil {
			t.Fatal("HostRecv on an empty queue returned a frame")
		}
		e.Write(buf, []byte("again"))
		d.DirectTx(e, buf, 5)
		g := w.HostRecv()
		if &f[:1][0] != &g[:1][0] {
			t.Fatal("the recycled frame was not reused")
		}
		if string(g) != "again" {
			t.Fatalf("HostRecv = %q", g)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
