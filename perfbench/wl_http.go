package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"sort"

	"cubicleos/internal/siege"
)

// http-small: many small files, open loop, seeded Poisson arrivals.
const (
	smallFiles    = 64
	smallMinBytes = 128
	smallMaxBytes = 8 << 10
	// smallRate is the offered virtual rate, about 70% of the modelled
	// capacity of this file mix (see vcap_rps).
	smallRate     = 3000
	smallRequests = 16000
	// smallLimitMs is the vlat_ms_p99 limit that defines vcap_rps.
	smallLimitMs = 5.0
	// vcap sweep: a grid of offered rates searched by bisection, each
	// probe a fresh deployment offered capProbeRequests arrivals.
	capGridLo, capGridStep, capGridN = 500, 50, 240
	capProbeRequests                 = 4000
	capMaxLive                       = 64
)

type httpSmall struct {
	seed  uint64
	files []file
	sched []arrival
	t     *siege.Target
}

func newHTTPSmall(seed uint64) *httpSmall {
	return &httpSmall{
		seed:  seed,
		files: genFiles(newRNG(seed, 1), smallFiles, smallMinBytes, smallMaxBytes, "s"),
		sched: poissonSchedule(newRNG(seed, 2), smallRequests, smallRate, smallFiles),
	}
}

func (w *httpSmall) inputs() []byte {
	h := sha256.New()
	hashFiles(h, w.files)
	hashSchedule(h, w.sched)
	return h.Sum(nil)
}

func (w *httpSmall) setup(rec *recorder, traced bool) error {
	t, err := bootNginx(rec, traced, w.files)
	w.t = t
	return err
}

func (w *httpSmall) drop() { w.t = nil }

func (w *httpSmall) run(rec *recorder) (*outcome, error) {
	d := &httpDriver{t: w.t, rec: rec, files: w.files}
	s0 := takeSnapshot(w.t.Sys)
	res := d.openLoop(w.sched, 0)
	out := &outcome{
		ops:     len(w.sched),
		failed:  len(w.sched) - res.counts[respOK],
		busy:    res.elapsed - res.idleCycles,
		elapsed: res.elapsed,
		lat:     res.lat,
		counts:  map[string]float64{},
		wrong:   d.badBodies,
	}
	out.setLatencies()
	s1 := nginxCounts(out.counts, w.t, s0, out.ops)
	driverCounts(out.counts, d, out.ops)
	late := append([]uint64(nil), res.late...)
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	out.counts["openloop.late_us_p99"] = float64(pct(late, 0.99)) / (cyclesPerSecond / 1e6)
	if s0.prof != nil {
		out.vprof = map[string]uint64{}
		out.vprofTotal = vprofDelta(out.vprof, s0, s1)
		out.traceDropped = w.t.Sys.M.Tracer().Dropped()
	}
	w.t = nil
	return out, nil
}

// driverCounts adds the counts the HTTP driver itself observed.
func driverCounts(c map[string]float64, d *httpDriver, ops int) {
	c["system.steps_per_op"] = float64(d.steps) / float64(ops)
	if d.steps > 0 {
		c["system.idle_step_frac"] = float64(d.idleSteps) / float64(d.steps)
	}
	c["httpd.conns_peak"] = float64(d.maxConns)
}

// capacity bisects the rate grid for the highest rate whose probe meets
// the latency limit with nothing shed or dropped and no backlog left.
func (w *httpSmall) capacity() (float64, error) {
	probe := func(k int) (bool, error) {
		rate := float64(capGridLo + k*capGridStep)
		t, err := bootNginx(&recorder{}, false, w.files)
		if err != nil {
			return false, err
		}
		sched := poissonSchedule(newRNG(w.seed, 3), capProbeRequests, rate, len(w.files))
		d := &httpDriver{t: t, rec: &recorder{}, files: w.files}
		res := d.openLoop(sched, capMaxLive)
		if d.badBodies > 0 {
			return false, fmt.Errorf("wrong body at %.0f rps", rate)
		}
		return meetsLimit(res.counts[respOK], len(sched), res.lat, res.elapsed, res.lastDue, smallLimitMs), nil
	}
	return bisectGrid(probe, capGridN, func(k int) float64 { return float64(capGridLo + k*capGridStep) })
}

// meetsLimit is the vcap pass rule: every op succeeded, the p99 latency is
// within limitMs, and the run drained within the limit of its last arrival.
func meetsLimit(ok, n int, lat []uint64, elapsed, lastDue uint64, limitMs float64) bool {
	if ok != n {
		return false
	}
	s := append([]uint64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	limit := uint64(limitMs * cyclesPerSecond / 1e3)
	return pct(s, 0.99) <= limit && elapsed <= lastDue+limit
}

// bisectGrid finds the highest grid index whose probe passes, assuming
// the pass region is a prefix of the grid; it returns that grid rate. A
// failing lowest rate is an error: the capacity lies below the grid. A
// passing top rate is reported on stderr, as the capacity then lies above
// the grid and the figure is only a lower bound.
func bisectGrid(probe func(k int) (bool, error), n int, rate func(k int) float64) (float64, error) {
	ok, err := probe(0)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("the lowest grid rate %.0f rps fails the probe", rate(0))
	}
	lo, hi := 0, n // probe(lo) passes; hi is past the grid
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		ok, err := probe(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo == n-1 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: the top grid rate %.0f rps passes the probe; capacity is above the grid\n", rate(lo))
	}
	return rate(lo), nil
}

// http-large: large files, closed loop, one client.
const (
	largeFiles    = 32
	largeMinBytes = 256 << 10
	largeMaxBytes = 2 << 20
	largeRounds   = 8 // each file is fetched this many times per pass
)

type httpLarge struct {
	files []file
	order []int
	t     *siege.Target
}

func newHTTPLarge(seed uint64) *httpLarge {
	w := &httpLarge{files: genFiles(newRNG(seed, 1), largeFiles, largeMinBytes, largeMaxBytes, "l")}
	r := newRNG(seed, 2)
	for k := 0; k < largeRounds; k++ {
		perm := make([]int, largeFiles)
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		w.order = append(w.order, perm...)
	}
	return w
}

func (w *httpLarge) inputs() []byte {
	h := sha256.New()
	hashFiles(h, w.files)
	for _, i := range w.order {
		h.Write([]byte{byte(i)})
	}
	return h.Sum(nil)
}

func (w *httpLarge) setup(rec *recorder, traced bool) error {
	t, err := bootNginx(rec, traced, w.files)
	w.t = t
	return err
}

func (w *httpLarge) drop() { w.t = nil }

func (w *httpLarge) run(rec *recorder) (*outcome, error) {
	d := &httpDriver{t: w.t, rec: rec, files: w.files}
	s0 := takeSnapshot(w.t.Sys)
	out := &outcome{ops: len(w.order), counts: map[string]float64{}}
	for i, fi := range w.order {
		rec.op = int32(i)
		root := rec.begin(lRoot)
		class, _, used := d.fetch(fi)
		rec.end(root)
		if class != respOK {
			out.failed++
			continue
		}
		out.lat = append(out.lat, used)
	}
	rec.op = -1
	out.wrong = d.badBodies
	s1 := nginxCounts(out.counts, w.t, s0, out.ops)
	driverCounts(out.counts, d, out.ops)
	out.elapsed = s1.clock - s0.clock
	out.busy = out.elapsed // a closed loop never idles the clock
	out.setLatencies()
	if s0.prof != nil {
		out.vprof = map[string]uint64{}
		out.vprofTotal = vprofDelta(out.vprof, s0, s1)
		out.traceDropped = w.t.Sys.M.Tracer().Dropped()
	}
	w.t = nil
	return out, nil
}

// capacity needs no sweep: with one client and no think time the server is
// never idle, so the rate the first pass completes ops at is its saturation
// rate (closedLoopCapacity).
func (w *httpLarge) capacity() (float64, error) { return 0, nil }
