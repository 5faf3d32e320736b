package main

import (
	"reflect"
	"sort"
	"testing"

	"cubicleos/internal/cubicle"
	"cubicleos/internal/cycles"
	"cubicleos/internal/httpd"
	"cubicleos/internal/siege"
)

// The benchmark's HTTP loops must drive the system exactly as siege does,
// so that timing them apart from the system is timing the same run.

func twinTargets(t *testing.T, gov *httpd.Governance, files []file) (a, b *siege.Target) {
	t.Helper()
	boot := func() *siege.Target {
		tg, err := siege.NewTargetOpts(siege.Options{Mode: cubicle.ModeFull, ReapClosed: true, Governance: gov})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if err := tg.PutFile(f.path, f.data); err != nil {
				t.Fatal(err)
			}
		}
		return tg
	}
	return boot(), boot()
}

func TestFetchMatchesSiege(t *testing.T) {
	files := genFiles(newRNG(7, 1), 1, 4096, 4097, "fid")
	a, b := twinTargets(t, nil, files)
	d := &httpDriver{t: b, rec: &recorder{}, files: files}
	for i := 0; i < 5; i++ {
		want, err := a.Fetch(files[0].path)
		if err != nil {
			t.Fatal(err)
		}
		class, status, used := d.fetch(0)
		if class != respOK || status != want.Status || used != want.Cycles {
			t.Fatalf("fetch %d: class %d status %d cycles %d, siege status %d cycles %d",
				i, class, status, used, want.Status, want.Cycles)
		}
		if string(want.Body) != string(files[0].data) || d.badBodies != 0 {
			t.Fatalf("fetch %d: body differs from the provisioned file", i)
		}
	}
	if ca, cb := a.Sys.M.Clock.Cycles(), b.Sys.M.Clock.Cycles(); ca != cb {
		t.Fatalf("virtual clocks diverged: siege %d, benchmark loop %d", ca, cb)
	}
	if !reflect.DeepEqual(a.Sys.M.Stats, b.Sys.M.Stats) {
		t.Fatal("monitor counters diverged from siege's run")
	}
}

func TestOpenLoopMatchesSiege(t *testing.T) {
	files := genFiles(newRNG(7, 1), 1, 2048, 2049, "fid")
	for _, tc := range []struct {
		name string
		rate float64
		gov  *httpd.Governance
	}{
		{"below-knee", 3000, nil},
		{"shedding", 9000, &httpd.Governance{MaxConns: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 400
			a, b := twinTargets(t, tc.gov, files)
			want, err := a.OpenLoop(siege.OpenLoopOptions{Path: files[0].path, Rate: tc.rate, Requests: n})
			if err != nil {
				t.Fatal(err)
			}
			interval := uint64(float64(cycles.FrequencyHz) / tc.rate)
			sched := make([]arrival, n)
			for i := range sched {
				sched[i] = arrival{due: uint64(i) * interval}
			}
			d := &httpDriver{t: b, rec: &recorder{}, files: files}
			got := d.openLoop(sched, 0)
			c := got.counts
			if c[respOK] != want.OK || c[respShed] != want.Shed || c[respError] != want.Errors || c[respDropped] != want.Dropped {
				t.Fatalf("ok/shed/error/dropped %v, siege %d/%d/%d/%d", c, want.OK, want.Shed, want.Errors, want.Dropped)
			}
			if tc.gov != nil && want.Shed == 0 {
				t.Fatal("the shedding case shed nothing")
			}
			lat := append([]uint64(nil), got.startLat...)
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			if siege.Percentile(lat, 0.5) != want.P50 || siege.Percentile(lat, 0.99) != want.P99 {
				t.Fatalf("p50/p99 %v/%v, siege %v/%v", siege.Percentile(lat, 0.5), siege.Percentile(lat, 0.99), want.P50, want.P99)
			}
			if cycles.Duration(got.elapsed) != want.Elapsed || d.maxConns != want.MaxConns {
				t.Fatalf("elapsed %v max conns %d, siege %v %d", cycles.Duration(got.elapsed), d.maxConns, want.Elapsed, want.MaxConns)
			}
			if d.badBodies != 0 {
				t.Fatalf("%d bodies differ from the provisioned file", d.badBodies)
			}
			if ca, cb := a.Sys.M.Clock.Cycles(), b.Sys.M.Clock.Cycles(); ca != cb {
				t.Fatalf("virtual clocks diverged: siege %d, benchmark loop %d", ca, cb)
			}
			if !reflect.DeepEqual(a.Sys.M.Stats, b.Sys.M.Stats) {
				t.Fatal("monitor counters diverged from siege's run")
			}
			if a.Sys.Alloc.TotalArenaBytes() != b.Sys.Alloc.TotalArenaBytes() {
				t.Fatal("ALLOC arena footprints diverged")
			}
		})
	}
}

func TestSeedsGiveDifferentInputs(t *testing.T) {
	// The development seed, the held-out seed and a neighbour of each.
	seeds := []uint64{1, 2, 9001, 9002}
	for _, name := range []string{"http-small", "http-large", "sql", "fleet"} {
		seen := map[string]uint64{}
		for _, seed := range seeds {
			a, _ := newWorkload(name, seed)
			a2, _ := newWorkload(name, seed)
			in := string(a.inputs())
			if in != string(a2.inputs()) {
				t.Errorf("%s: seed %d gave two different inputs", name, seed)
			}
			if prev, ok := seen[in]; ok {
				t.Errorf("%s: seeds %d and %d gave the same inputs", name, prev, seed)
			}
			seen[in] = seed
		}
	}
}

// TestLapMin checks the per-lap minimum: each lap keeps its shortest time
// over the passes, and a pass with another lap count is refused.
func TestLapMin(t *testing.T) {
	var m lapMin
	for _, ends := range [][]int64{{10, 30, 60}, {5, 40, 50}, {20, 25, 70}} {
		if err := m.add(ends); err != nil {
			t.Fatal(err)
		}
	}
	// Lap durations: {10,20,30}, {5,35,10}, {20,5,45}.
	if got, want := m.total(), int64(5+5+10); got != want {
		t.Fatalf("total %d, want %d", got, want)
	}
	if err := m.add([]int64{1, 2}); err == nil {
		t.Fatal("a pass with fewer laps was accepted")
	}
}
