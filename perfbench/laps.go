package main

import (
	"fmt"
	"time"
)

// On a shared host a busy neighbour on the same physical core, or a
// preempted virtual CPU, can double the time a stretch of code takes, in
// bursts lasting from microseconds to minutes. That noise only ever adds
// time. So ops_per_s is not taken from the median pass: the op phase is
// cut into laps at fixed points of its deterministic op sequence, and the
// run keeps, lap by lap, the shortest host time any pass took. A lap's
// minimum over many passes is the best estimate of what its work costs
// when the host leaves it alone, and their sum is the op phase's cost (the
// minimum-of-repeats estimator of Chen and Revels, "Robust benchmarking in
// noisy environments", 2016). Laps are short (a few microseconds to about
// a millisecond), so each lap's minimum is likely to come from an
// undisturbed stretch. Garbage collection that runs on another core does
// not slow the op loop directly and is left out; allocation shows in
// alloc_kb_per_op and allocs_per_op.

// startLaps starts timing the op phase in laps and returns its start.
func (r *recorder) startLaps() time.Time {
	r.lapT0 = time.Now()
	r.laps = r.laps[:0]
	return r.lapT0
}

// lap ends the current lap. Workloads call it at fixed points of their op
// sequence (each Target.Step and Peer.Pump of an HTTP driver, each SQL
// statement, each
// quantum the fleet's first backend enters), so lap i of one pass is the
// same simulated work as lap i of every other pass of the run. It costs
// one clock read, traced or not.
func (r *recorder) lap() { r.laps = append(r.laps, int64(time.Since(r.lapT0))) }

// lapMin is the per-lap minimum host time over the passes added to it.
type lapMin struct {
	ns     []int64
	passes int
}

// add folds in one pass's lap end times (ns since the op phase started).
func (m *lapMin) add(ends []int64) error {
	if m.passes > 0 && len(ends) != len(m.ns) {
		return fmt.Errorf("a pass ran %d laps, earlier passes %d", len(ends), len(m.ns))
	}
	if m.passes == 0 {
		m.ns = make([]int64, len(ends))
	}
	prev := int64(0)
	for i, e := range ends {
		if d := e - prev; m.passes == 0 || d < m.ns[i] {
			m.ns[i] = d
		}
		prev = e
	}
	m.passes++
	return nil
}

// total is the op phase's host time with every lap at its minimum.
func (m *lapMin) total() int64 {
	var t int64
	for _, d := range m.ns {
		t += d
	}
	return t
}
