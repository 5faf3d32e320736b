// Parallel open-loop driving: the offered load is sharded across N
// simulated cores, each shard a fully independent booted system (its own
// monitor, clock, server and wire — nothing shared, so per-shard
// behaviour is byte-identical to a single-core run at the shard's rate).
// StepAll steps the shards concurrently one quantum at a time, joining
// them at a barrier before the next bound is set. Virtual-time figures are
// therefore deterministic for a fixed configuration, while wall-clock
// throughput scales with the host's cores — the simulator's analogue of
// running one NGINX deployment per core behind a load balancer.

package siege

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cubicleos/internal/cycles"
)

// ParallelQuantum is the virtual-cycle length of one quantum in the
// parallel driver: each quantum sets the shards' common bound this far
// past global virtual time, and every live shard steps until its clock
// passes the bound.
const ParallelQuantum = 2_000_000

// StepAll runs step(0) … step(n-1) concurrently and returns once all of
// them have. It is the barrier of every driver that advances
// share-nothing systems in quanta: the steps must touch disjoint state,
// and the join publishes their effects to the caller. The caller and up
// to GOMAXPROCS-1 helper goroutines take indices in turn until none are
// left, so the host's CPUs, not the step count, bound the parallelism.
// A panic in a step does not take the process down from a helper: once
// every step has returned, the panic of the lowest index that raised one
// is re-raised on the caller's goroutine, so which failure surfaces does
// not depend on host scheduling.
func StepAll(n int, step func(i int)) {
	if n == 1 {
		step(0)
		return
	}
	panics := make([]any, n)
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			func() {
				defer func() { panics[i] = recover() }()
				step(i)
			}()
		}
	}
	helpers := max(min(n, runtime.GOMAXPROCS(0))-1, 0)
	var wg sync.WaitGroup
	wg.Add(helpers)
	for h := 0; h < helpers; h++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// ParallelStats is the merged result of a sharded open-loop run.
type ParallelStats struct {
	// OpenLoopStats holds the machine-wide virtual-time figures: counters
	// and MaxConns/ArenaBytes are summed across shards, latency
	// percentiles are computed over the pooled per-request latencies, and
	// Elapsed/GoodputRPS use the longest shard span (the shards run
	// concurrently in virtual time).
	OpenLoopStats
	// Cores is the number of shards.
	Cores int
	// PerCore are the individual shard results.
	PerCore []*OpenLoopStats
	// GVT is global virtual time at completion: the latest shard clock.
	GVT uint64
	// Quanta is how many barrier-delimited quanta the run took.
	Quanta uint64
	// WallSeconds is host wall-clock time spent driving the shards
	// (provisioning/boot excluded); WallRPS is completed 200s per host
	// second — the figure that shows wall-clock scaling.
	WallSeconds float64
	WallRPS     float64
}

// ParallelOpenLoop shards o across cores: shard c is booted by mk(c),
// receives Rate/cores of the offered load and an equal share of the
// arrivals (remainder spread over the lowest cores), and is stepped in
// ParallelQuantum quanta until every shard finishes.
func ParallelOpenLoop(cores int, mk func(core int) (*Target, error), o OpenLoopOptions) (*ParallelStats, error) {
	if cores < 1 {
		cores = 1
	}
	if o.Rate <= 0 || o.Requests <= 0 {
		return nil, fmt.Errorf("siege: open loop needs positive rate and request count")
	}

	var runs []*openLoopRun
	var gvt uint64 // latest shard clock
	base, rem := o.Requests/cores, o.Requests%cores
	for c := 0; c < cores; c++ {
		t, err := mk(c)
		if err != nil {
			return nil, fmt.Errorf("siege: parallel boot of shard %d: %w", c, err)
		}
		// Idle shards (more cores than requests) still count towards GVT.
		gvt = max(gvt, t.Sys.M.Clock.Cycles())
		so := o
		so.Rate = o.Rate / float64(cores)
		so.Requests = base
		if c < rem {
			so.Requests++
		}
		if so.Requests == 0 {
			continue
		}
		r, err := t.newOpenLoopRun(so)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}

	ps := &ParallelStats{Cores: cores}
	wallStart := time.Now()
	live := append([]*openLoopRun(nil), runs...)
	done := make([]bool, len(live))
	for len(live) > 0 {
		bound := gvt + ParallelQuantum
		StepAll(len(live), func(i int) {
			r := live[i]
			for r.clock.Cycles() < bound {
				if !r.step() {
					done[i] = true
					return
				}
			}
		})
		ps.Quanta++
		n := 0
		for i, r := range live {
			gvt = max(gvt, r.clock.Cycles())
			if !done[i] {
				live[n] = r
				n++
			}
		}
		live = live[:n]
		clear(done)
	}
	wall := time.Since(wallStart)
	ps.GVT = gvt

	ps.OfferedRPS = o.Rate
	var lats []uint64
	var maxElapsed uint64
	for _, r := range runs {
		st := r.finish()
		ps.PerCore = append(ps.PerCore, st)
		ps.Arrivals += st.Arrivals
		ps.OK += st.OK
		ps.Shed += st.Shed
		ps.Errors += st.Errors
		ps.Dropped += st.Dropped
		ps.MaxConns += st.MaxConns
		ps.ArenaBytes += st.ArenaBytes
		maxElapsed = max(maxElapsed, r.elapsedCycles)
		lats = append(lats, r.lats...)
	}
	ps.Elapsed = cycles.Duration(maxElapsed)
	if maxElapsed > 0 {
		ps.GoodputRPS = float64(ps.OK) * float64(cycles.FrequencyHz) / float64(maxElapsed)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	ps.P50 = percentile(lats, 0.50)
	ps.P99 = percentile(lats, 0.99)
	ps.P999 = percentile(lats, 0.999)
	ps.WallSeconds = wall.Seconds()
	if ps.WallSeconds > 0 {
		ps.WallRPS = float64(ps.OK) / ps.WallSeconds
	}
	return ps, nil
}
