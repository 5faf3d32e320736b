package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/lwip"
	"cubicleos/internal/siege"
)

// traceRing is the monitor trace ring size of traced passes. Counters and
// the cycle profile are streamed, so a ring that wraps loses no figure.
const traceRing = 1 << 16

// file is one provisioned static file.
type file struct {
	path string
	data []byte
	req  []byte // the HTTP/1.0 request siege sends for it
}

// genFiles makes n seeded files with sizes spread over [lo, hi], named
// prefix-<random hex>.html in the root directory.
func genFiles(r *rng, n, lo, hi int, prefix string) []file {
	sizes := strataSizes(r, n, lo, hi)
	out := make([]file, n)
	for i, sz := range sizes {
		p := fmt.Sprintf("/%s-%016x.html", prefix, r.next())
		out[i] = file{
			path: p,
			data: r.text(sz),
			req:  []byte(fmt.Sprintf("GET %s HTTP/1.0\r\nHost: cubicle\r\nUser-Agent: siege-sim\r\n\r\n", p)),
		}
	}
	return out
}

func hashFiles(h io.Writer, files []file) {
	for _, f := range files {
		h.Write([]byte(f.path))
		h.Write(f.data)
	}
}

// bootNginx boots the Figure 5 NGINX deployment (ModeFull, closed-socket
// reaping on) and provisions files, recording boot and provision spans.
func bootNginx(rec *recorder, traced bool, files []file) (*siege.Target, error) {
	s := rec.begin(lBoot)
	o := siege.Options{Mode: cubicle.ModeFull, ReapClosed: true}
	if traced {
		o.TraceEvents = traceRing
	}
	t, err := siege.NewTargetOpts(o)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(lProvision)
	defer rec.end(s)
	for _, f := range files {
		if err := t.PutFile(f.path, f.data); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// httpDriver drives one NGINX target through the same public calls siege
// uses (Target.Step, Peer.Connect/Pump, PeerConn.Send/Release), with a span
// around each so system and harness host time can be told apart.
type httpDriver struct {
	t     *siege.Target
	rec   *recorder
	files []file

	steps, idleSteps int
	maxConns         int
	// badBodies counts 200 responses whose body differs from the file.
	badBodies int
}

func (d *httpDriver) step() {
	d.rec.lap()
	clock := d.t.Sys.M.Clock
	s := d.rec.begin(lSystem)
	before := clock.Cycles()
	d.t.Step()
	if clock.Cycles() == before {
		d.idleSteps++
	}
	d.steps++
	d.rec.end(s)
	if c := d.t.Srv.Conns(); c > d.maxConns {
		d.maxConns = c
	}
	d.rec.lap()
	s = d.rec.begin(lPeer)
	d.t.Peer.Pump()
	d.rec.end(s)
}

func (d *httpDriver) connect() *lwip.PeerConn {
	s := d.rec.begin(lPeer)
	c := d.t.Peer.Connect(80)
	d.rec.end(s)
	return c
}

func (d *httpDriver) send(c *lwip.PeerConn, req []byte) {
	s := d.rec.begin(lPeer)
	c.Send(req)
	d.rec.end(s)
}

func (d *httpDriver) release(c *lwip.PeerConn) {
	s := d.rec.begin(lPeer)
	c.Release()
	d.rec.end(s)
}

// Response classes, as siege's open loop counts them.
const (
	respOK = iota
	respShed
	respError
	respDropped
)

// classify parses a complete HTTP/1.0 response and, for a 200, checks the
// body byte for byte against the provisioned file.
func (d *httpDriver) classify(raw []byte, want []byte) (class, status int) {
	s := d.rec.begin(lCheck)
	defer d.rec.end(s)
	hdrEnd := bytes.Index(raw, []byte("\r\n\r\n"))
	if hdrEnd < 0 {
		return respDropped, 0
	}
	line := raw[:hdrEnd]
	if i := bytes.Index(line, []byte("\r\n")); i >= 0 {
		line = line[:i]
	}
	fields := bytes.Fields(line)
	if len(fields) < 2 {
		return respDropped, 0
	}
	status, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		return respDropped, 0
	}
	switch {
	case status == 200:
		if !bytes.Equal(raw[hdrEnd+4:], want) {
			d.badBodies++
		}
		return respOK, status
	case status == 429 || status == 503:
		return respShed, status
	}
	return respError, status
}

// arrival is one scheduled open-loop request: due cycles after the start.
type arrival struct {
	due  uint64
	file int
}

// poissonSchedule draws n arrivals at rate requests per virtual second:
// exponential gaps (Poisson arrivals), each for a file. Both are drawn in
// stratified blocks: each block of scheduleBlock gaps takes one value from
// every 1/scheduleBlock quantile band of the exponential distribution,
// and each block of len(files) requests asks for every file once, both in
// seeded order. The arrivals stay Poisson in distribution while a run's
// offered load and work mix barely vary from seed to seed.
func poissonSchedule(r *rng, n int, rate float64, files int) []arrival {
	mean := cyclesPerSecond / rate
	gaps := stratified(r, n, scheduleBlock, func(q float64) float64 { return -mean * math.Log(1-q) })
	picks := stratified(r, n, files, func(q float64) float64 { return math.Floor(q * float64(files)) })
	out := make([]arrival, n)
	var t float64
	for i := range out {
		if i > 0 {
			t += gaps[i]
		}
		out[i] = arrival{due: uint64(t), file: int(picks[i])}
	}
	return out
}

const scheduleBlock = 64

// stratified draws n values of inv(q) where, within each block of size b,
// q takes one seeded value in each band [j/b, (j+1)/b), in shuffled order.
func stratified(r *rng, n, b int, inv func(q float64) float64) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		block := make([]float64, b)
		for j := range block {
			block[j] = inv((float64(j) + r.float()) / float64(b))
		}
		for j := b - 1; j > 0; j-- {
			k := r.intn(j + 1)
			block[j], block[k] = block[k], block[j]
		}
		out = append(out, block...)
	}
	return out[:n]
}

type flight struct {
	id                   int32 // arrival index
	conn                 *lwip.PeerConn
	file                 int
	due, startAt, doneAt uint64
	sent                 bool
}

// olResult is one open-loop run.
type olResult struct {
	counts [4]int // by response class
	// lat is due-to-done virtual latency of each 200; startLat is
	// launch-to-done plus the request floor, siege's own definition.
	lat, startLat []uint64
	// late is how far behind schedule each request was launched.
	late       []uint64
	idleCycles uint64
	elapsed    uint64
	lastDue    uint64
}

// Open-loop safety limits, siege's defaults.
const (
	olMaxSteps  = 5_000_000
	olIdleLimit = 20_000
)

// openLoop offers the scheduled arrivals and drives the system until each
// completes, is shed or stalls. Iteration for iteration it does what
// siege's open loop does, so a fixed-interval single-path schedule
// reproduces siege.OpenLoop exactly; it only keeps in-flight requests in
// a list instead of rescanning every request ever issued.
//
// A positive maxLive abandons the run once more requests than that are in
// flight at once: a backlog that deep already fails any latency limit, and
// deeper overload only costs memory.
func (d *httpDriver) openLoop(sched []arrival, maxLive int) *olResult {
	t, rec := d.t, d.rec
	clock := t.Sys.M.Clock
	start := clock.Cycles()
	res := &olResult{}
	if n := len(sched); n > 0 {
		res.lastDue = sched[n-1].due
	}
	var live []*flight
	launched, idle := 0, 0
	for steps := 0; steps < olMaxSteps; steps++ {
		// Requests overlap, so an iteration's root span carries no op id;
		// the spans made for one request carry its arrival index, and so
		// do the step and pump while it is the only one in flight.
		rec.op = -1
		root := rec.begin(lRoot)
		for launched < len(sched) && clock.Cycles() >= start+sched[launched].due {
			a := sched[launched]
			rec.op = int32(launched)
			live = append(live, &flight{id: rec.op, conn: d.connect(), file: a.file, due: start + a.due, startAt: clock.Cycles()})
			res.late = append(res.late, clock.Cycles()-(start+a.due))
			launched++
		}
		rec.op = -1
		if len(live) == 1 {
			rec.op = live[0].id
		}
		d.step()
		progress := false
		kept := live[:0]
		for _, f := range live {
			rec.op = f.id
			if f.conn.Established && !f.sent {
				d.send(f.conn, d.files[f.file].req)
				f.sent = true
				progress = true
			}
			if f.conn.FinRcvd {
				f.doneAt = clock.Cycles()
				d.release(f.conn)
				class, _ := d.classify(f.conn.Received(), d.files[f.file].data)
				res.counts[class]++
				if class == respOK {
					res.lat = append(res.lat, f.doneAt-f.due)
					res.startLat = append(res.startLat, f.doneAt-f.startAt+t.RequestFloor)
				}
				progress = true
				continue
			}
			kept = append(kept, f)
		}
		for i := len(kept); i < len(live); i++ {
			live[i] = nil
		}
		live = kept
		if maxLive > 0 && len(live) > maxLive {
			rec.end(root)
			break
		}
		if launched == len(sched) && len(live) == 0 {
			rec.end(root)
			break
		}
		if len(live) == 0 && launched < len(sched) {
			// Nothing in flight: idle until the next scheduled arrival.
			next := start + sched[launched].due
			if now := clock.Cycles(); next > now {
				res.idleCycles += next - now
			}
			clock.AdvanceTo(next)
			rec.end(root)
			continue
		}
		if launched == len(sched) && !progress {
			// Drain phase: give stalled connections a bounded chance.
			if idle++; idle > olIdleLimit {
				rec.end(root)
				break
			}
		} else {
			idle = 0
		}
		rec.end(root)
	}
	rec.op = -1
	res.counts[respDropped] += len(live) + len(sched) - launched
	res.elapsed = clock.Cycles() - start
	return res
}

// fetch is one closed-loop request, call for call what siege.Fetch does.
// It returns the response class and status and the virtual cycles used.
func (d *httpDriver) fetch(fi int) (class, status int, used uint64) {
	clock := d.t.Sys.M.Clock
	start := clock.Cycles()
	f := d.files[fi]
	conn := d.connect()
	sent := false
	for i := 0; i < 5_000_000; i++ {
		d.step()
		if conn.Established && !sent {
			d.send(conn, f.req)
			sent = true
		}
		if conn.FinRcvd {
			break
		}
	}
	d.release(conn)
	used = clock.Cycles() - start
	if !conn.FinRcvd {
		return respDropped, 0, used
	}
	class, status = d.classify(conn.Received(), f.data)
	return class, status, used
}

// nginxCounts adds the per-layer virtual counts of one NGINX target over
// an op phase that started at snapshot s0, and returns the end snapshot.
func nginxCounts(c map[string]float64, t *siege.Target, s0 *snapshot, ops int) *snapshot {
	s1 := takeSnapshot(t.Sys)
	var d monDelta
	d.add(t.Sys.M, &s0.stats, &s1.stats)
	d.put(c, ops)
	w0, w1 := s0.wire, s1.wire
	c["netdev.frames_per_op"] = float64(w1.framesIn+w1.framesOut-w0.framesIn-w0.framesOut) / float64(ops)
	c["netdev.kb_per_op"] = float64(w1.bytesIn+w1.bytesOut-w0.bytesIn-w0.bytesOut) / 1024 / float64(ops)
	c["netdev.drops"] = float64(w1.drops - w0.drops)
	c["ramfs.ops_per_op"] = float64(s1.ramfsOps-s0.ramfsOps) / float64(ops)
	c["ualloc.arena_mb"] = float64(t.Sys.Alloc.TotalArenaBytes()) / (1 << 20)
	return s1
}

// hashSchedule hashes an arrival schedule.
func hashSchedule(h io.Writer, sched []arrival) {
	var b [8]byte
	for _, a := range sched {
		binary.LittleEndian.PutUint64(b[:], a.due)
		h.Write(b[:])
		binary.LittleEndian.PutUint64(b[:], uint64(a.file))
		h.Write(b[:])
	}
}
