package siege

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"cubicleos/internal/lwip"
)

// KAConn is a persistent (keep-alive) HTTP client connection. Unlike
// Fetch's HTTP/1.0 one-shot — where the server's close delimits the
// response — responses here are framed by Content-Length, so many
// requests ride one TCP connection, sequentially or pipelined. The
// cluster balancer reuses these connections per backend; keeping them
// warm is what makes hedged retries affordable.
type KAConn struct {
	Conn *lwip.PeerConn
	off  int // receive-buffer bytes consumed by parsed responses, not yet discarded
	// Served counts responses parsed off this connection.
	Served int
	// SawClose latches once a response announced Connection: close (or
	// was HTTP/1.0 without keep-alive); no further requests should be
	// sent on the connection.
	SawClose bool
}

// OpenKA dials a keep-alive client connection to the server port. The
// TCP handshake completes asynchronously: drive the system and Pump the
// peer until Conn.Established before the first Request.
func (t *Target) OpenKA() *KAConn {
	return &KAConn{Conn: t.Peer.Connect(80)}
}

// Request sends GET path as HTTP/1.1 (keep-alive by default).
func (k *KAConn) Request(path string) {
	k.Conn.Send([]byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: cubicle\r\nUser-Agent: siege-sim\r\n\r\n", path)))
}

// RequestClose sends GET path as HTTP/1.1 with Connection: close — the
// polite way to retire the connection after this response.
func (k *KAConn) RequestClose(path string) {
	k.Conn.Send([]byte(fmt.Sprintf("GET %s HTTP/1.1\r\nHost: cubicle\r\nConnection: close\r\n\r\n", path)))
}

// KAResponse is one response parsed off a keep-alive connection.
type KAResponse struct {
	Status int
	Body   []byte
	// Close reports that this response retires the connection.
	Close bool
}

// Next parses the next complete response out of the connection's receive
// buffer. It returns (nil, nil) when more bytes are needed — drive the
// system and Pump, then ask again. The response body is a read-only slice
// of the connection's append-only receive buffer: it stays valid as later
// responses arrive. Once every received byte is parsed the connection
// discards them, so a pooled connection holds at most its unread tail
// however many responses it carries.
func (k *KAConn) Next() (*KAResponse, error) {
	all := k.Conn.Received()
	buf := all[k.off:]
	hdrEnd := bytes.Index(buf, []byte("\r\n\r\n"))
	if hdrEnd < 0 {
		return nil, nil
	}
	head := string(buf[:hdrEnd])
	lines := strings.Split(head, "\r\n")
	fields := strings.Fields(lines[0])
	if len(fields) < 2 {
		return nil, fmt.Errorf("siege: malformed status line %q", truncate(lines[0], 80))
	}
	status, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("siege: bad status %q", fields[1])
	}
	clen, closing := -1, !strings.HasPrefix(fields[0], "HTTP/1.1")
	for _, l := range lines[1:] {
		key, val, ok := strings.Cut(l, ":")
		if !ok {
			continue
		}
		val = strings.TrimSpace(val)
		switch {
		case strings.EqualFold(key, "Content-Length"):
			if clen, err = strconv.Atoi(val); err != nil {
				return nil, fmt.Errorf("siege: bad Content-Length %q", val)
			}
		case strings.EqualFold(key, "Connection"):
			closing = !strings.EqualFold(val, "keep-alive")
		}
	}
	if clen < 0 {
		return nil, fmt.Errorf("siege: response without Content-Length: %q", truncate(head, 120))
	}
	total := hdrEnd + 4 + clen
	if len(buf) < total {
		return nil, nil
	}
	body := buf[hdrEnd+4 : total : total]
	k.off += total
	if k.off == len(all) {
		k.Conn.Discard(k.off)
		k.off = 0
	}
	k.Served++
	if closing {
		k.SawClose = true
	}
	return &KAResponse{Status: status, Body: body, Close: closing}, nil
}

// FetchKA issues GET path over the keep-alive connection and drives the
// system until the response completes. The first call on a fresh
// connection also waits out the TCP handshake.
func (t *Target) FetchKA(k *KAConn, path string) (*KAResponse, error) {
	sent := false
	for i := 0; i < 5_000_000; i++ {
		t.stepH.Call(t.Sys.Env)
		t.Peer.Pump()
		if k.Conn.Established && !sent {
			k.Request(path)
			sent = true
		}
		if sent {
			r, err := k.Next()
			if err != nil || r != nil {
				return r, err
			}
		}
		if k.Conn.FinRcvd {
			break
		}
	}
	// A final response may have raced the server's FIN onto the wire.
	if r, err := k.Next(); err != nil || r != nil {
		return r, err
	}
	return nil, fmt.Errorf("siege: keep-alive request for %s did not complete", path)
}
