package siege

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/httpd"
)

// TestKeepAliveReusesConnection drives several requests over one
// connection and checks each response is framed and answered correctly.
func TestKeepAliveReusesConnection(t *testing.T) {
	tg := MustNewTarget(cubicle.ModeFull)
	body := bytes.Repeat([]byte("ka"), 2048)
	if err := tg.PutFile("/ka.html", body); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	for i := 0; i < 5; i++ {
		r, err := tg.FetchKA(k, "/ka.html")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r.Status != 200 || !bytes.Equal(r.Body, body) {
			t.Fatalf("request %d: status %d, body %d bytes", i, r.Status, len(r.Body))
		}
		if r.Close {
			t.Fatalf("request %d: server closed a keep-alive exchange early", i)
		}
	}
	if k.Served != 5 {
		t.Fatalf("served %d responses on one connection, want 5", k.Served)
	}
	if k.Conn.FinRcvd {
		t.Fatal("server closed the connection despite keep-alive")
	}
	// Missing files keep the connection too: errors are per-request.
	r, err := tg.FetchKA(k, "/nope.html")
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 404 || r.Close {
		t.Fatalf("missing file: status %d close %v, want 404 keep-alive", r.Status, r.Close)
	}
	// Connection: close retires it.
	k.RequestClose("/ka.html")
	var last *KAResponse
	for i := 0; i < 2_000_000 && last == nil; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
		last, err = k.Next()
		if err != nil {
			t.Fatal(err)
		}
	}
	if last == nil || last.Status != 200 || !last.Close {
		t.Fatalf("Connection: close answer = %+v, want 200 with close", last)
	}
	for i := 0; i < 2_000_000 && !k.Conn.FinRcvd; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
	}
	if !k.Conn.FinRcvd {
		t.Fatal("server did not close after Connection: close")
	}
}

// TestKeepAliveReceiveBufferBounded: a pooled keep-alive connection
// lives for a whole run, so its receive buffer must not keep every
// response it ever carried. After each parsed response the buffer holds
// at most one response, and discarding never rewrites bytes already
// handed out: every earlier body still reads as served.
func TestKeepAliveReceiveBufferBounded(t *testing.T) {
	tg := MustNewTarget(cubicle.ModeFull)
	const n = 40
	bodies := make([][]byte, n)
	for i := range bodies {
		// Distinct contents per file, so a reused buffer would show.
		bodies[i] = bytes.Repeat([]byte{byte('a' + i%26), byte(i)}, 700+13*i)
		if err := tg.PutFile(fmt.Sprintf("/ka%d.html", i), bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	k := tg.OpenKA()
	var got []*KAResponse
	for i := 0; i < n; i++ {
		r, err := tg.FetchKA(k, fmt.Sprintf("/ka%d.html", i))
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if r.Status != 200 || !bytes.Equal(r.Body, bodies[i]) {
			t.Fatalf("request %d: status %d, body %d bytes", i, r.Status, len(r.Body))
		}
		if held := len(k.Conn.Received()); held > 512+len(bodies[i]) {
			t.Fatalf("after response %d the connection holds %d bytes, more than one response", i, held)
		}
		got = append(got, r)
	}
	for i, r := range got {
		if !bytes.Equal(r.Body, bodies[i]) {
			t.Fatalf("body of response %d changed after later responses arrived", i)
		}
	}
}

// TestKeepAlivePipelining sends two requests back to back in one write;
// both responses must come back in order on the same connection, the
// second parsed straight from buffered bytes without another Recv.
func TestKeepAlivePipelining(t *testing.T) {
	tg := MustNewTarget(cubicle.ModeFull)
	if err := tg.PutFile("/a.html", []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := tg.PutFile("/b.html", []byte("bravo")); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	for i := 0; i < 2_000_000 && !k.Conn.Established; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
	}
	k.Request("/a.html")
	k.Request("/b.html")
	var got []*KAResponse
	for i := 0; i < 2_000_000 && len(got) < 2; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
		for {
			r, err := k.Next()
			if err != nil {
				t.Fatal(err)
			}
			if r == nil {
				break
			}
			got = append(got, r)
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d pipelined responses, want 2", len(got))
	}
	if string(got[0].Body) != "alpha" || string(got[1].Body) != "bravo" {
		t.Fatalf("pipelined bodies out of order: %q, %q", got[0].Body, got[1].Body)
	}
}

// TestKeepAliveRequestCap: the server forces Connection: close once a
// connection has served Governance.MaxConnRequests responses.
func TestKeepAliveRequestCap(t *testing.T) {
	tg, err := NewTargetOpts(Options{
		Mode:       cubicle.ModeFull,
		Governance: &httpd.Governance{MaxConnRequests: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.PutFile("/c.html", []byte("cap")); err != nil {
		t.Fatal(err)
	}
	k := tg.OpenKA()
	for i := 0; i < 3; i++ {
		r, err := tg.FetchKA(k, "/c.html")
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		wantClose := i == 2
		if r.Status != 200 || r.Close != wantClose {
			t.Fatalf("request %d: status %d close %v, want 200 close=%v", i, r.Status, r.Close, wantClose)
		}
	}
	for i := 0; i < 2_000_000 && !k.Conn.FinRcvd; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
	}
	if !k.Conn.FinRcvd {
		t.Fatal("server did not close at the requests-per-conn cap")
	}
}

// TestHTTP10StaysByteIdentical: a plain HTTP/1.0 request must get the
// pre-keep-alive response bytes — no Connection header — and a close.
// The golden-figure determinism gates depend on this.
func TestHTTP10StaysByteIdentical(t *testing.T) {
	tg := MustNewTarget(cubicle.ModeFull)
	if err := tg.PutFile("/ten.html", []byte("ten")); err != nil {
		t.Fatal(err)
	}
	r, err := tg.Fetch("/ten.html")
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != 200 {
		t.Fatalf("status %d", r.Status)
	}
	// Re-fetch raw to inspect the header bytes.
	conn := tg.Peer.Connect(80)
	sent := false
	for i := 0; i < 2_000_000 && !conn.FinRcvd; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
		if conn.Established && !sent {
			conn.Send([]byte("GET /ten.html HTTP/1.0\r\nHost: cubicle\r\n\r\n"))
			sent = true
		}
	}
	raw := string(conn.Received())
	want := "HTTP/1.0 200 OK\r\nServer: cubicle-nginx\r\nContent-Length: 3\r\n\r\nten"
	if raw != want {
		t.Fatalf("HTTP/1.0 response changed:\n got %q\nwant %q", raw, want)
	}
	// An HTTP/1.0 client may still opt in to keep-alive explicitly.
	conn2 := tg.Peer.Connect(80)
	sent = false
	var raw2 string
	for i := 0; i < 2_000_000; i++ {
		tg.stepH.Call(tg.Sys.Env)
		tg.Peer.Pump()
		if conn2.Established && !sent {
			conn2.Send([]byte("GET /ten.html HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"))
			sent = true
		}
		raw2 = string(conn2.Received())
		if strings.Contains(raw2, "ten") {
			break
		}
	}
	if !strings.Contains(raw2, "Connection: keep-alive\r\n") {
		t.Fatalf("HTTP/1.0 keep-alive opt-in not honoured: %q", truncate(raw2, 120))
	}
	if conn2.FinRcvd {
		t.Fatal("server closed an HTTP/1.0 keep-alive connection")
	}
}

// TestKeepAliveChurnStaysBounded is the leak regression riding on the
// keep-alive path: thousands of requests over a churn of short keep-alive
// connections must not grow ALLOC's arena, because LwipReapClosed still
// reclaims each retired socket's ~1.1 MiB of buffers.
func TestKeepAliveChurnStaysBounded(t *testing.T) {
	tg, err := NewTargetOpts(Options{Mode: cubicle.ModeFull, ReapClosed: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tg.PutFile("/churn.html", []byte("churn")); err != nil {
		t.Fatal(err)
	}
	var after10 uint64
	for i := 0; i < 40; i++ {
		k := tg.OpenKA()
		for j := 0; j < 4; j++ {
			if _, err := tg.FetchKA(k, "/churn.html"); err != nil {
				t.Fatalf("conn %d request %d: %v", i, j, err)
			}
		}
		if _, err := tg.FetchKA(k, "/churn.html"); err != nil {
			t.Fatalf("conn %d close request: %v", i, err)
		}
		k.RequestClose("/churn.html")
		for s := 0; s < 2_000_000 && !k.Conn.FinRcvd; s++ {
			tg.stepH.Call(tg.Sys.Env)
			tg.Peer.Pump()
		}
		if !k.Conn.FinRcvd {
			t.Fatalf("conn %d never retired", i)
		}
		if i == 9 {
			after10 = tg.Sys.Alloc.TotalArenaBytes()
		}
	}
	after40 := tg.Sys.Alloc.TotalArenaBytes()
	if after40 > after10 {
		t.Fatalf("arena grew under keep-alive churn: %d B after 10 conns, %d B after 40", after10, after40)
	}
	if tg.Sys.Lwip.Reaped < 30 {
		t.Fatalf("only %d sockets reaped, want >= 30", tg.Sys.Lwip.Reaped)
	}
}
