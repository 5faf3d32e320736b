package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// layer names what a span's host time was spent on.
type layer uint8

const (
	// lRoot is one driver iteration (open loop) or one op (closed loop);
	// its self time is the benchmark loop's own bookkeeping.
	lRoot layer = iota
	// lSystem is a call into the simulated system: Target.Step, an SQL
	// statement run inside the SQLITE cubicle, or a cluster run.
	lSystem
	// lPeer is a call into the host-side TCP peer (lwip.Peer/PeerConn).
	lPeer
	// lCheck is the benchmark's output check.
	lCheck
	// lBoot and lProvision split set-up.
	lBoot
	lProvision
	nLayers
)

var layerNames = [nLayers]string{"root", "system", "peer", "check", "boot", "provision"}

// span is one recorded interval in nanoseconds since the recorder's origin.
type span struct {
	start, end int64
	parent     int32
	op         int32
	layer      layer
}

// recorder keeps spans in memory while tracing is on; when it is off,
// begin and end cost one branch each.
type recorder struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int32
	// op is the id stamped on spans begun from now on.
	op int32
	// laps holds the end of each lap of the op phase, in ns since lapT0
	// (see lap).
	lapT0 time.Time
	laps  []int64
}

// reset starts a pass. A traced pass discards the previous traced pass's
// spans; an untraced one keeps them for writeSpans.
func (r *recorder) reset(on bool) {
	r.on = on
	r.op = -1
	if on {
		r.t0 = time.Now()
		r.spans = r.spans[:0]
		r.open = r.open[:0]
	}
}

func (r *recorder) begin(l layer) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{start: int64(time.Since(r.t0)), parent: parent, op: r.op, layer: l})
	i := int32(len(r.spans) - 1)
	r.open = append(r.open, i)
	return i
}

func (r *recorder) end(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.t0))
	r.open = r.open[:len(r.open)-1]
}

// layerTimes is a pass's host time per layer: self time (span duration
// minus the part its children cover) and span counts.
type layerTimes struct {
	self, count [nLayers]int64
	// rootNs sums the durations of the op phase's root spans (set-up
	// spans excluded): the host time the op phase's spans cover.
	rootNs int64
	// bad describes the first malformed span found, if any.
	bad string
	// opSystem is each op's self time in the system layer, by op id.
	opSystem map[int32]int64
}

// selfTimes computes per-layer self times of the recorded spans.
func (r *recorder) selfTimes() layerTimes {
	var lt layerTimes
	if !r.on {
		return lt
	}
	lt.opSystem = make(map[int32]int64)
	child := make([]int64, len(r.spans))
	for i, s := range r.spans {
		if s.end < s.start {
			lt.bad = fmt.Sprintf("span %d (%s) never ended", i, layerNames[s.layer])
			continue
		}
		if s.parent >= 0 {
			p := r.spans[s.parent]
			if s.start < p.start || (p.end >= p.start && s.end > p.end) {
				lt.bad = fmt.Sprintf("span %d (%s) outside its parent", i, layerNames[s.layer])
			}
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range r.spans {
		d := s.end - s.start
		self := d - child[i]
		if self < 0 {
			lt.bad = fmt.Sprintf("span %d (%s) children overlap", i, layerNames[s.layer])
		}
		lt.self[s.layer] += self
		lt.count[s.layer]++
		if s.parent < 0 && s.layer == lRoot {
			lt.rootNs += d
		}
		if s.layer == lSystem && s.op >= 0 {
			lt.opSystem[s.op] += self
		}
	}
	return lt
}

// maxUnspanned is the largest share of a traced op phase that root spans
// may leave uncovered: the time spent outside them (counter snapshots,
// latency sorting) is not attributed to any layer.
const maxUnspanned = 0.05

// unspanned is the share of the op phase's host time, opsNs, that no root
// span covers. The self times of all spans sum to the root spans' time, so
// this is also the share the per-layer self times leave out.
func (lt *layerTimes) unspanned(opsNs int64) float64 {
	if opsNs <= 0 {
		return 0
	}
	return 1 - float64(lt.rootNs)/float64(opsNs)
}

// check reports malformed spans, and root spans that cover less of the op
// phase than they must (traced passes only).
func (lt *layerTimes) check(traced bool, opsNs int64) error {
	if lt.bad != "" {
		return fmt.Errorf("%s", lt.bad)
	}
	if u := lt.unspanned(opsNs); traced && (u > maxUnspanned || u < 0) {
		return fmt.Errorf("root spans cover %d ns of a %d ns op phase (%.1f%% outside, at most %.0f%% allowed)",
			lt.rootNs, opsNs, 100*u, 100*maxUnspanned)
	}
	return nil
}

// maxWrittenSpans caps the span file of one run.
const maxWrittenSpans = 200_000

// writeSpans writes the last traced pass's spans as tab-separated
// "op layer parent start_ns end_ns" lines.
func writeSpans(dir, name string, seed uint64, r *recorder) error {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.tsv", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tlayer\tparent\tstart_ns\tend_ns")
	for i, s := range r.spans {
		if i >= maxWrittenSpans {
			break
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\n", s.op, layerNames[s.layer], s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
