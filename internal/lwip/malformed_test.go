package lwip_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/lwip"
	"cubicleos/internal/netdev"
	"cubicleos/internal/vm"
)

// frame encodes h followed by body; h.Len is left as the caller set it,
// so a test can make the header lie about the payload.
func frame(h lwip.Header, body []byte) []byte {
	f := make([]byte, lwip.HdrSize+len(body))
	lwip.EncodeHeader(f, h)
	copy(f[lwip.HdrSize:], body)
	return f
}

// TestPeerDropsMalformedFrames: the host peer must drop a frame whose
// header Len overruns the frame, and one shorter than a header, without
// panicking and without delivering bytes an earlier frame left in the
// recycled frame buffer.
func TestPeerDropsMalformedFrames(t *testing.T) {
	s := bootNet(t, cubicle.ModeFull, 0)
	peer := lwip.NewPeer(s.Netdev.Wire())
	nd := netdev.NewClient(s.M, s.Cubs["APP"].ID)
	err := s.RunAs("APP", func(e *cubicle.Env) {
		buf := e.HeapAlloc(2 * vm.PageSize)
		wid := e.WindowInit()
		e.WindowAdd(wid, buf, 2*vm.PageSize)
		e.WindowOpen(wid, e.CubicleOf(netdev.Name))
		tx := func(f []byte) {
			e.Write(buf, f)
			if _, errno := nd.Tx(e, buf, uint64(len(f))); errno != 0 {
				t.Fatalf("tx errno %d", errno)
			}
			peer.Pump()
		}
		// Play the server at the frame level: read the SYN, answer it.
		conn := peer.Connect(80)
		n, _ := nd.Rx(e, buf, 2*vm.PageSize)
		syn := lwip.DecodeHeader(e.ReadBytes(buf, n))
		h := lwip.Header{SrcPort: 80, DstPort: syn.SrcPort, Seq: 1000, Ack: syn.Seq + 1,
			Flags: lwip.FlagSYN | lwip.FlagACK, Wnd: 64 << 10}
		tx(frame(h, nil))
		if !conn.Established {
			t.Fatal("handshake failed")
		}
		h.Seq++
		h.Flags = lwip.FlagACK
		stale := bytes.Repeat([]byte{'A'}, 100)
		h.Len = 100
		tx(frame(h, stale))
		h.Seq += 100

		// Len claims 100 bytes, the frame carries 10: the pooled frame's
		// capacity still holds the A's of the previous frame.
		tx(frame(h, []byte("BBBBBBBBBB")))
		if peer.Malformed != 1 {
			t.Fatalf("overlong Len: Malformed = %d, want 1", peer.Malformed)
		}
		tx([]byte("short"))
		if peer.Malformed != 2 {
			t.Fatalf("short frame: Malformed = %d, want 2", peer.Malformed)
		}
		h.Len = 4
		tx(frame(h, []byte("CCCC")))
		if got, want := conn.Received(), append(stale, "CCCC"...); !bytes.Equal(got, want) {
			t.Fatalf("received %q, want %q", got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStackDropsMalformedFrames: LWIP must drop a received frame whose
// header Len overruns the length the device reported, and one shorter
// than a header, without delivering the staging buffer's stale bytes.
func TestStackDropsMalformedFrames(t *testing.T) {
	s := bootNet(t, cubicle.ModeFull, 0)
	w := s.Netdev.Wire()
	err := s.RunAs("APP", func(e *cubicle.Env) {
		an := newAppNet(s, e, 64*1024)
		fd := an.c.Socket(e)
		an.c.Bind(e, fd, 80)
		an.c.Listen(e, fd, 8)
		// Play the client at the frame level.
		h := lwip.Header{SrcPort: 5555, DstPort: 80, Seq: 100, Flags: lwip.FlagSYN, Wnd: 64 << 10}
		w.HostSend(frame(h, nil))
		an.c.Poll(e)
		cfd, errno := an.c.Accept(e, fd)
		if errno != lwip.EOK {
			t.Fatalf("accept: %d", errno)
		}
		recv := func() string {
			n, _ := an.c.Recv(e, cfd, an.buf, an.n)
			return string(e.ReadBytes(an.buf, n))
		}
		h.Seq++
		h.Flags = lwip.FlagACK
		h.Ack = 1
		stale := bytes.Repeat([]byte{'A'}, 100)
		h.Len = 100
		w.HostSend(frame(h, stale))
		an.c.Poll(e)
		if got := recv(); got != string(stale) {
			t.Fatalf("recv %q", got)
		}
		h.Seq += 100

		// The staging buffer still holds the A's past these frames' ends.
		w.HostSend(frame(h, []byte("BBBBBBBBBB")))
		w.HostSend([]byte("short"))
		an.c.Poll(e)
		if s.Lwip.RxMalformed != 2 {
			t.Fatalf("RxMalformed = %d, want 2", s.Lwip.RxMalformed)
		}
		if got := recv(); got != "" {
			t.Fatalf("malformed frames delivered %q", got)
		}
		h.Len = 4
		w.HostSend(frame(h, []byte("CCCC")))
		an.c.Poll(e)
		if got := recv(); got != "CCCC" {
			t.Fatalf("recv %q, want CCCC", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
