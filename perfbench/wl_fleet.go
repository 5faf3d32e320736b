package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"cubicleos/internal/cluster"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/siege"
)

// fleet: a 4-backend cluster (consistent hashing, keep-alive HTTP/1.1,
// checkpoints and supervised restarts) under an open loop, with one
// seeded backend kill in mid-run.
const (
	fleetBackends = 4
	fleetFiles    = 8
	// One file is requested per run; a narrow size range keeps the seeds'
	// per-request cost comparable.
	fleetMinBytes, fleetMaxBytes = 2048, 2304
	fleetRate                    = 8000 // cluster-wide offered rate, requests per virtual second
	fleetRequests                = 3000
	// fleetCheckpoint is the checkpoint cadence in cycles, the cluster
	// tests' setting.
	fleetCheckpoint = 5_000_000
	// fleetRetryBudget lets retries cover the requests the kill takes down.
	fleetRetryBudget = 0.25
	fleetHedgeAfter  = 20_000_000
	// fleetLimitMs is the vlat_ms_p99 limit that defines the fleet's
	// vcap_rps. The grid's top rate is 1.2-1.4x the capacity it finds.
	fleetLimitMs                        = 4.0
	fleetCapLo, fleetCapStep, fleetCapN = 8000, 150, 128
)

// fleetCapStages are the lengths, in requests, of the runs that probe one
// rate, each on a fresh fleet; the rate passes if every run does. A rate
// well above capacity fails a short run before its backlog grows: the
// cluster holds about 1 MB of host memory per request it has not yet
// answered.
var fleetCapStages = []int{500, 1500, 4000}

type fleet struct {
	files       []file
	path        int
	seed        uint64
	rate        float64
	killAt      uint64
	killBackend int
	c           *cluster.Cluster
}

func newFleet(seed uint64) *fleet {
	r := newRNG(seed, 1)
	w := &fleet{files: genFiles(r, fleetFiles, fleetMinBytes, fleetMaxBytes, "f")}
	w.path = r.intn(fleetFiles)
	w.seed = r.next()
	w.rate = fleetRate * (0.98 + 0.04*r.float())
	span := float64(fleetRequests) * cyclesPerSecond / w.rate
	w.killAt = uint64(span * (0.35 + 0.3*r.float()))
	w.killBackend = r.intn(fleetBackends)
	return w
}

func (w *fleet) inputs() []byte {
	h := sha256.New()
	hashFiles(h, w.files)
	var b [8]byte
	for _, v := range []uint64{uint64(w.path), w.seed, math.Float64bits(w.rate), w.killAt, uint64(w.killBackend)} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum(nil)
}

// boot starts a fleet; attempts bounds the legs per request (0 = the
// cluster's default).
func (w *fleet) boot(rec *recorder, traced bool, script []cluster.Event, attempts int) (*cluster.Cluster, error) {
	s := rec.begin(lBoot)
	o := cluster.Options{
		Backends:           fleetBackends,
		Mode:               cubicle.ModeFull,
		Policy:             cluster.PolicyHash,
		Seed:               w.seed,
		CheckpointInterval: fleetCheckpoint,
		ReapClosed:         true,
		RetryBudget:        fleetRetryBudget,
		HedgeAfter:         fleetHedgeAfter,
		MaxAttempts:        attempts,
		Script:             script,
	}
	if traced {
		o.TraceEvents = traceRing
	}
	c, err := cluster.New(o)
	rec.end(s)
	if err != nil {
		return nil, err
	}
	s = rec.begin(lProvision)
	defer rec.end(s)
	for _, f := range w.files {
		if err := c.PutFile(f.path, f.data); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (w *fleet) setup(rec *recorder, traced bool) error {
	c, err := w.boot(rec, traced, []cluster.Event{{AtCycle: w.killAt, Backend: w.killBackend, Action: cluster.ActKill}}, 0)
	w.c = c
	return err
}

func (w *fleet) drop() { w.c = nil }

// busyMeter splits a backend clock's advances into work and idle: the
// cluster driver idles a backend by advancing its clock to the cluster
// clock, which always sits on a multiple of cluster.Quantum, while work
// charges land there only by coincidence. The first backend's meter also
// ends a lap of the op phase each time its clock enters a new quantum
// (laps is nil on the others).
type busyMeter struct {
	busy, prev uint64
	laps       *recorder
}

func (b *busyMeter) observe(now uint64) {
	if now%cluster.Quantum != 0 {
		b.busy += now - b.prev
	}
	if b.laps != nil && now/cluster.Quantum != b.prev/cluster.Quantum {
		b.laps.lap()
	}
	b.prev = now
}

func (w *fleet) run(rec *recorder) (*outcome, error) {
	c := w.c
	snaps := make([]*snapshot, len(c.Backends))
	meters := make([]*busyMeter, len(c.Backends))
	for i, b := range c.Backends {
		snaps[i] = takeSnapshot(b.T.Sys)
		clk := b.T.Sys.M.Clock
		meters[i] = &busyMeter{prev: clk.Cycles()}
		if i == 0 {
			meters[i].laps = rec
		}
		clk.SetOnAdvance(meters[i].observe)
	}
	rec.op = 0
	root := rec.begin(lRoot)
	s := rec.begin(lSystem)
	st, err := c.RunOpenLoop(cluster.RunOptions{Path: w.files[w.path].path, Rate: w.rate, Requests: fleetRequests})
	rec.end(s)
	for _, b := range c.Backends {
		b.T.Sys.M.Clock.SetOnAdvance(nil)
	}
	if err != nil {
		rec.end(root)
		return nil, err
	}
	out := &outcome{ops: fleetRequests, failed: fleetRequests - st.OK, counts: map[string]float64{}}
	if st.OK+st.Shed+st.Errors+st.Dropped != st.Arrivals || st.Arrivals != fleetRequests {
		out.wrong++
	}

	floor := time.Duration(float64(siege.DefaultRequestFloor) / cyclesPerSecond * 1e9)
	out.p50 = durToCycles(st.P50 - floor)
	out.p99 = durToCycles(st.P99 - floor)
	out.goodput = st.GoodputRPS
	out.elapsed = durToCycles(st.Elapsed)
	var d monDelta
	var frames, bytesMoved, drops, ramfsOps uint64
	var arena float64
	minRouted, maxRouted := ^uint64(0), uint64(0)
	prof := map[string]uint64{}
	var profTotal uint64
	for i, b := range c.Backends {
		s1 := takeSnapshot(b.T.Sys)
		d.add(b.T.Sys.M, &snaps[i].stats, &s1.stats)
		w0, w1 := snaps[i].wire, s1.wire
		frames += w1.framesIn + w1.framesOut - w0.framesIn - w0.framesOut
		bytesMoved += w1.bytesIn + w1.bytesOut - w0.bytesIn - w0.bytesOut
		drops += w1.drops - w0.drops
		ramfsOps += s1.ramfsOps - snaps[i].ramfsOps
		arena += float64(b.T.Sys.Alloc.TotalArenaBytes()) / (1 << 20)
		out.busy += meters[i].busy
		minRouted = min(minRouted, b.Routed)
		maxRouted = max(maxRouted, b.Routed)
		if s1.prof != nil {
			profTotal += vprofDelta(prof, snaps[i], s1)
		}
	}
	n := float64(out.ops)
	d.put(out.counts, out.ops)
	out.counts["netdev.frames_per_op"] = float64(frames) / n
	out.counts["netdev.kb_per_op"] = float64(bytesMoved) / 1024 / n
	out.counts["netdev.drops"] = float64(drops)
	out.counts["ramfs.ops_per_op"] = float64(ramfsOps) / n
	out.counts["ualloc.arena_mb"] = arena
	out.counts["cluster.retries_per_kop"] = float64(st.Retries) * 1000 / n
	out.counts["cluster.hedges_per_kop"] = float64(st.Hedges) * 1000 / n
	out.counts["cluster.failovers"] = float64(st.Failovers)
	out.counts["cluster.drains"] = float64(st.Drains)
	out.counts["cluster.readmits"] = float64(st.Readmits)
	out.counts["cluster.route_faults"] = float64(st.RouteFaults)
	if minRouted > 0 {
		out.counts["cluster.backend_skew"] = float64(maxRouted) / float64(minRouted)
	}
	if len(prof) > 0 {
		out.vprof, out.vprofTotal = prof, profTotal
		for _, b := range c.Backends {
			out.traceDropped += b.T.Sys.M.Tracer().Dropped()
		}
	}
	// Output check, after the counters are read: following the kill and
	// recovery, every backend must still serve every file byte for byte.
	chk := rec.begin(lCheck)
	out.wrong += w.checkBackends(c)
	rec.end(chk)
	rec.end(root)
	rec.op = -1
	w.c = nil
	return out, nil
}

// checkBackends fetches every file from every backend and counts bodies
// that differ from what was provisioned.
func (w *fleet) checkBackends(c *cluster.Cluster) int {
	wrong := 0
	for _, b := range c.Backends {
		for _, f := range w.files {
			r, err := b.T.Fetch(f.path)
			if err != nil || r.Status != 200 || !bytes.Equal(r.Body, f.data) {
				wrong++
			}
		}
	}
	return wrong
}

func durToCycles(d time.Duration) uint64 {
	if d < 0 {
		return 0
	}
	return uint64(float64(d) * cyclesPerSecond / 1e9)
}

// capacity bisects a rate grid for the highest cluster-wide rate at which
// a fresh, healthy fleet serves every request within the latency limit
// and drains within the limit of its last arrival. The probes leave out
// the kill, whose timing would make the figure a matter of the seed
// rather than of the fleet, and allow one attempt per request: no retries
// or hedges, so a shed or dropped request fails the probe.
func (w *fleet) capacity() (float64, error) {
	rate := func(k int) float64 { return float64(fleetCapLo + k*fleetCapStep) }
	floor := time.Duration(float64(siege.DefaultRequestFloor) / cyclesPerSecond * 1e9)
	limit := uint64(fleetLimitMs * cyclesPerSecond / 1e3)
	probe := func(k int) (bool, error) {
		r := rate(k)
		for _, n := range fleetCapStages {
			c, err := w.boot(&recorder{}, false, nil, 1)
			if err != nil {
				return false, err
			}
			// Arrivals are due every interval cycles from the run's start;
			// a run still busy limit cycles after the last one has a
			// backlog and fails, so the driver may stop there.
			lastDue := uint64(n) * uint64(cyclesPerSecond/r)
			st, err := c.RunOpenLoop(cluster.RunOptions{
				Path: w.files[w.path].path, Rate: r, Requests: n,
				MaxQuanta: int((lastDue+limit)/cluster.Quantum) + 2,
			})
			if err != nil {
				return false, fmt.Errorf("fleet probe at %.0f rps: %w", r, err)
			}
			if st.OK != st.Arrivals || durToCycles(st.P99-floor) > limit || durToCycles(st.Elapsed) > lastDue+limit {
				return false, nil
			}
		}
		return true, nil
	}
	return bisectGrid(probe, fleetCapN, rate)
}
