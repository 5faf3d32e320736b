package main

import (
	"cubicleos/internal/boot"
	"cubicleos/internal/cubicle"
	"cubicleos/internal/trace"
)

// wireCounts are the NETDEV wire's public counters; drops sums every
// kind of lost frame.
type wireCounts struct {
	framesIn, framesOut, bytesIn, bytesOut, drops uint64
}

// snapshot is a system's public counters at one instant.
type snapshot struct {
	stats    cubicle.Stats
	wire     wireCounts
	ramfsOps uint64
	clock    uint64
	prof     map[string]uint64
}

func takeSnapshot(sys *boot.System) *snapshot {
	s := &snapshot{stats: cubicle.NewStats(), ramfsOps: sys.Ramfs.OpCount, clock: sys.M.Clock.Cycles()}
	s.stats.Merge(&sys.M.Stats)
	if sys.Netdev != nil {
		w := sys.Netdev.Wire()
		s.wire = wireCounts{
			framesIn: w.FramesIn, framesOut: w.FramesOut, bytesIn: w.BytesIn, bytesOut: w.BytesOut,
			drops: w.DropsIn + w.DropsOut + w.InjectedDropsIn + w.InjectedDropsOut,
		}
	}
	if trc := sys.M.Tracer(); trc != nil {
		s.prof = profileByName(trc)
	}
	return s
}

// profileByName flattens the tracer's per-cubicle cycle profile.
func profileByName(trc *trace.Tracer) map[string]uint64 {
	out := make(map[string]uint64)
	for _, e := range trc.Profile().Entries {
		out[e.Name] += e.Cycles
	}
	return out
}

// vprofDelta adds the per-cubicle virtual cycles between two snapshots to
// acc and returns the clock advance they must sum to.
func vprofDelta(acc map[string]uint64, s0, s1 *snapshot) uint64 {
	for name, c := range s1.prof {
		if d := c - s0.prof[name]; d > 0 {
			acc[name] += d
		}
	}
	return s1.clock - s0.clock
}

// monDelta is the change in one or more monitors' counters over an op
// phase, with call edges keyed by cubicle names.
type monDelta struct {
	calls, wrpkru, faults, retags, copied, windowOps, windowSteps uint64
	tlbHits, tlbMisses                                            uint64
	checkpoints, checkpointBytes, warm, cold, contained           uint64
	edges                                                         map[string]uint64
}

// add accumulates the change from a to b on monitor m.
func (d *monDelta) add(m *cubicle.Monitor, a, b *cubicle.Stats) {
	if d.edges == nil {
		d.edges = make(map[string]uint64)
	}
	d.calls += b.CallsTotal - a.CallsTotal
	d.wrpkru += b.WRPKRUs - a.WRPKRUs
	d.faults += b.Faults - a.Faults
	d.retags += b.Retags - a.Retags
	d.copied += b.BulkBytesCopied + b.StackBytesCopied - a.BulkBytesCopied - a.StackBytesCopied
	d.windowOps += b.WindowOps - a.WindowOps
	d.windowSteps += b.WindowSearchSteps - a.WindowSearchSteps
	d.tlbHits += b.TLBHits - a.TLBHits
	d.tlbMisses += b.TLBMisses - a.TLBMisses
	d.checkpoints += b.Checkpoints - a.Checkpoints
	d.checkpointBytes += b.CheckpointBytes - a.CheckpointBytes
	d.warm += b.WarmRestarts - a.WarmRestarts
	d.cold += b.ColdRestarts - a.ColdRestarts
	d.contained += b.ContainedFaults - a.ContainedFaults
	cubs := m.Cubicles()
	name := func(id cubicle.ID) string {
		if int(id) >= 0 && int(id) < len(cubs) {
			return cubs[id].Name
		}
		return "?"
	}
	for e, n := range b.Calls {
		if n > a.Calls[e] {
			d.edges[name(e.From)+"-"+name(e.To)] += n - a.Calls[e]
		}
	}
}

// put writes the monitor metrics for ops ops into c.
func (d *monDelta) put(c map[string]float64, ops int) {
	n := float64(ops)
	c["cubicle.crossings_per_op"] = float64(d.calls) / n
	c["cubicle.wrpkru_per_op"] = float64(d.wrpkru) / n
	c["cubicle.trap_maps_per_op"] = float64(d.faults) / n
	c["cubicle.retags_per_op"] = float64(d.retags) / n
	c["cubicle.copy_kb_per_op"] = float64(d.copied) / 1024 / n
	c["cubicle.window_ops_per_op"] = float64(d.windowOps) / n
	c["cubicle.window_search_steps_per_op"] = float64(d.windowSteps) / n
	c["cubicle.tlb_misses_per_op"] = float64(d.tlbMisses) / n
	if t := d.tlbHits + d.tlbMisses; t > 0 {
		c["cubicle.tlb_hit_ratio"] = float64(d.tlbHits) / float64(t)
	}
	c["cubicle.checkpoints"] = float64(d.checkpoints)
	c["cubicle.checkpoint_kb"] = float64(d.checkpointBytes) / 1024
	c["cubicle.warm_restarts"] = float64(d.warm)
	c["cubicle.cold_restarts"] = float64(d.cold)
	c["cubicle.contained_faults"] = float64(d.contained)
	for e, k := range d.edges {
		c["calls."+e+"_per_op"] = float64(k) / n
	}
}
