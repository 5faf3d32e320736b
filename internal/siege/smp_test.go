package siege_test

import (
	"reflect"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/faultinject"
	"cubicleos/internal/ramfs"
	"cubicleos/internal/siege"
)

// mkShard builds the shard boot function used by every parallel test:
// identical deployments with one 4 KiB file.
func mkShard(t *testing.T) func(core int) (*siege.Target, error) {
	t.Helper()
	return func(core int) (*siege.Target, error) {
		tgt, err := siege.NewTarget(cubicle.ModeFull)
		if err != nil {
			return nil, err
		}
		if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
			return nil, err
		}
		return tgt, nil
	}
}

// virtualView strips the wall-clock fields from a parallel result so runs
// can be compared for virtual-time determinism.
func virtualView(ps *siege.ParallelStats) siege.ParallelStats {
	v := *ps
	v.WallSeconds, v.WallRPS = 0, 0
	return v
}

// TestStepAllJoinsAndRaisesLowestPanic: StepAll runs every step once,
// even when some of them panic, and then re-raises the panic of the
// lowest index on the caller's goroutine.
func TestStepAllJoinsAndRaisesLowestPanic(t *testing.T) {
	const n = 6
	var ran [n]int
	var got any
	func() {
		defer func() { got = recover() }()
		siege.StepAll(n, func(i int) {
			ran[i]++
			if i == 2 || i == 4 {
				panic(i)
			}
		})
	}()
	if got != 2 {
		t.Fatalf("StepAll raised %v, want the panic of index 2", got)
	}
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("step %d ran %d times, want once", i, r)
		}
	}
	siege.StepAll(0, func(i int) { t.Errorf("step %d of none ran", i) })
}

// TestParallelOpenLoopDeterministic is the siege-level determinism gate:
// the same configuration driven five times produces identical virtual-time
// results — counters, latency percentiles, per-shard stats, GVT and quantum
// count — regardless of how the host schedules the worker goroutines.
// Under -race it also gates the shard/barrier protocol.
func TestParallelOpenLoopDeterministic(t *testing.T) {
	opts := siege.OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 48}
	run := func() siege.ParallelStats {
		ps, err := siege.ParallelOpenLoop(3, mkShard(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return virtualView(ps)
	}
	first := run()
	if first.OK == 0 {
		t.Fatalf("no completed requests: %+v", first.OpenLoopStats)
	}
	for i := 1; i < 5; i++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d diverged:\n got  %+v\n want %+v", i, got, first)
		}
	}
}

// TestParallelOpenLoopOneCoreMatchesSequential asserts the cores=1
// parallel driver is a pass-through: the merged figures equal a plain
// OpenLoop run of the same deployment, field for field. This is the
// siege half of the "cores=1 is byte-identical to the seed" guarantee.
func TestParallelOpenLoopOneCoreMatchesSequential(t *testing.T) {
	opts := siege.OpenLoopOptions{Path: "/index.html", Rate: 1500, Requests: 24}

	seq := bootOverloadTarget(t, siege.Options{Mode: cubicle.ModeFull})
	want, err := seq.OpenLoop(opts)
	if err != nil {
		t.Fatal(err)
	}

	ps, err := siege.ParallelOpenLoop(1, mkShard(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps.OpenLoopStats, *want) {
		t.Fatalf("cores=1 merged stats differ from sequential:\n got  %+v\n want %+v", ps.OpenLoopStats, *want)
	}
	if len(ps.PerCore) != 1 || !reflect.DeepEqual(*ps.PerCore[0], *want) {
		t.Fatalf("per-core stats differ from sequential")
	}
}

// TestParallelOpenLoopShardsLoad asserts the request split: every arrival
// lands on some shard, the remainder goes to the low cores, and all
// shards complete their share.
func TestParallelOpenLoopShardsLoad(t *testing.T) {
	opts := siege.OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 10}
	ps, err := siege.ParallelOpenLoop(4, mkShard(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Arrivals != 10 || ps.OK != 10 {
		t.Fatalf("arrivals=%d ok=%d, want 10/10 (stats %+v)", ps.Arrivals, ps.OK, ps.OpenLoopStats)
	}
	wantPerCore := []int{3, 3, 2, 2}
	if len(ps.PerCore) != 4 {
		t.Fatalf("got %d shard results, want 4", len(ps.PerCore))
	}
	for c, st := range ps.PerCore {
		if st.Arrivals != wantPerCore[c] {
			t.Fatalf("shard %d got %d arrivals, want %d", c, st.Arrivals, wantPerCore[c])
		}
	}
	if ps.Quanta == 0 || ps.GVT == 0 {
		t.Fatalf("expected barrier bookkeeping: quanta=%d gvt=%d", ps.Quanta, ps.GVT)
	}
}

// TestParallelOpenLoopUnderChaos is the chaos+SMP smoke: every shard runs
// under supervision with an armed deterministic fault injector aimed at
// RAMFS, and the sharded run must (a) terminate without a stall or an
// uncontained panic, (b) actually inject and contain faults, and (c)
// reproduce the same virtual-time figures and per-shard monitor stats on
// a second run — chaos schedules are part of the determinism contract.
func TestParallelOpenLoopUnderChaos(t *testing.T) {
	const cores = 2
	run := func() (siege.ParallelStats, []cubicle.Stats) {
		targets := make([]*siege.Target, cores)
		mk := func(core int) (*siege.Target, error) {
			policy := cubicle.DefaultRestartPolicy()
			policy.MaxRestarts = 1000
			policy.CrossingBudget = 200_000_000
			tgt, err := siege.NewTargetOpts(siege.Options{
				Mode:        cubicle.ModeFull,
				Supervision: &policy,
				Chaos: &faultinject.Config{
					Seed:           uint64(11 + core),
					Target:         ramfs.Name,
					ProtAtCrossing: 0.004,
					ProtAtWindowOp: 0.002,
					ProtAtRetag:    0.001,
				},
			})
			if err != nil {
				return nil, err
			}
			if err := tgt.PutFile("/index.html", make([]byte, 4096)); err != nil {
				return nil, err
			}
			tgt.Sys.Chaos.Arm()
			targets[core] = tgt
			return tgt, nil
		}
		opts := siege.OpenLoopOptions{Path: "/index.html", Rate: 2000, Requests: 60}
		ps, err := siege.ParallelOpenLoop(cores, mk, opts)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]cubicle.Stats, cores)
		for c, tgt := range targets {
			st := tgt.Sys.M.Stats
			st.Calls = nil // map iteration order irrelevant; edges checked via DeepEqual of counters
			stats[c] = st
		}
		return virtualView(ps), stats
	}
	first, stats0 := run()
	var injected, contained uint64
	for _, st := range stats0 {
		injected += st.InjectedFaults
		contained += st.ContainedFaults
	}
	if injected == 0 {
		t.Fatalf("chaos shards injected no faults; schedule or rate broken")
	}
	if contained == 0 {
		t.Fatalf("faults injected but none contained: %+v", stats0)
	}
	if first.OK == 0 {
		t.Fatalf("no request survived the chaos run: %+v", first.OpenLoopStats)
	}
	again, stats1 := run()
	if !reflect.DeepEqual(again, first) {
		t.Fatalf("chaos SMP run not reproducible:\n got  %+v\n want %+v", again, first)
	}
	if !reflect.DeepEqual(stats1, stats0) {
		t.Fatalf("per-shard chaos stats diverged:\n got  %+v\n want %+v", stats1, stats0)
	}
}
