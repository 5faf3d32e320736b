package siege_test

import (
	"bytes"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

func TestFetchAccountsFloor(t *testing.T) {
	tgt := siege.MustNewTarget(cubicle.ModeUnikraft)
	if err := tgt.PutFile("/x", make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/x")
	if err != nil {
		t.Fatal(err)
	}
	// Latency = system cycles + the fixed client/network floor at 2.2 GHz.
	floorMs := float64(tgt.RequestFloor) / 2.2e6
	if got := float64(res.Latency.Microseconds()) / 1000; got < floorMs {
		t.Errorf("latency %.2f ms below the %.2f ms floor", got, floorMs)
	}
}

func TestFetchMissingIs404(t *testing.T) {
	tgt := siege.MustNewTarget(cubicle.ModeFull)
	if err := tgt.PutFile("/present", []byte("y")); err != nil {
		t.Fatal(err)
	}
	res, err := tgt.Fetch("/absent")
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Fatalf("status %d", res.Status)
	}
}

func TestEdgesReporting(t *testing.T) {
	tgt := siege.MustNewTarget(cubicle.ModeFull)
	if err := tgt.PutFile("/e", make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	if _, err := tgt.Fetch("/e"); err != nil {
		t.Fatal(err)
	}
	edges := tgt.Edges()
	if len(edges) == 0 {
		t.Fatal("no call edges recorded")
	}
	for i := 1; i < len(edges); i++ {
		if edges[i].Count > edges[i-1].Count {
			t.Fatal("edges not sorted by count")
		}
	}
}

func TestFetchConcurrentSingle(t *testing.T) {
	tgt := siege.MustNewTarget(cubicle.ModeFull)
	if err := tgt.PutFile("/c", make([]byte, 2048)); err != nil {
		t.Fatal(err)
	}
	rs, err := tgt.FetchConcurrent([]string{"/c"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Status != 200 || len(rs[0].Body) != 2048 {
		t.Fatalf("concurrent single: %+v", rs[0])
	}
}

// TestReleasedReceiveSurvivesPoolReuse: the bytes Received returns for a
// released connection, and a Fetch body sliced from them, stay
// byte-identical after 100 later connections have recycled the wire's
// frames and the peer's receive chunks.
func TestReleasedReceiveSurvivesPoolReuse(t *testing.T) {
	tgt := siege.MustNewTarget(cubicle.ModeUnikraft)
	a := make([]byte, 40<<10)
	for i := range a {
		a[i] = byte(i*7 + i>>8)
	}
	b := bytes.Repeat([]byte("b"), 50<<10)
	if err := tgt.PutFile("/a", a); err != nil {
		t.Fatal(err)
	}
	if err := tgt.PutFile("/b", b); err != nil {
		t.Fatal(err)
	}
	conn := tgt.Peer.Connect(80)
	sent := false
	for i := 0; i < 100_000 && !conn.FinRcvd; i++ {
		tgt.Step()
		tgt.Peer.Pump()
		if conn.Established && !sent {
			conn.Send([]byte("GET /a HTTP/1.0\r\n\r\n"))
			sent = true
		}
	}
	conn.Release()
	raw := conn.Received()
	if !bytes.HasSuffix(raw, a) {
		t.Fatalf("response of %d bytes does not end with the file", len(raw))
	}
	first, err := tgt.Fetch("/a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Body, a) {
		t.Fatal("fetch /a: body differs from the file")
	}
	want := bytes.Clone(raw)
	for i := 0; i < 100; i++ {
		r, err := tgt.Fetch("/b")
		if err != nil || r.Status != 200 || !bytes.Equal(r.Body, b) {
			t.Fatalf("fetch %d of /b: err=%v", i, err)
		}
	}
	if !bytes.Equal(raw, want) || !bytes.Equal(conn.Received(), want) {
		t.Fatal("released connection's received bytes changed under pool reuse")
	}
	if !bytes.Equal(first.Body, a) {
		t.Fatal("Fetch body changed under pool reuse")
	}
}
