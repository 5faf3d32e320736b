package main

import (
	"fmt"
	"os"
	"strings"
)

// layerMetrics fills the per-layer metrics of a traced run. Even passes
// ran untraced (overhead baseline, CPU profile), odd passes traced.
func layerMetrics(m map[string]metric, w workload, passes []*pass, prof *cpuProfiler) {
	var traced, untraced []*pass
	for _, p := range passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	first := passes[0].out
	ops := float64(first.ops)
	medianOver := func(ps []*pass, f func(*pass) float64) float64 {
		var v []float64
		for _, p := range ps {
			v = append(v, f(p))
		}
		return median(v)
	}
	usPerOp := func(l layer) float64 {
		return medianOver(traced, func(p *pass) float64 { return float64(p.layers.self[l]) / 1e3 / ops })
	}
	rate := func(ps []*pass) float64 {
		return medianOver(ps, func(p *pass) float64 { return float64(p.out.ops) / (float64(p.opsNs) / 1e9) })
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	set("boot.boot_ms", medianOver(traced, func(p *pass) float64 { return float64(p.bootNs) / 1e6 }), "ms")
	set("boot.provision_ms", medianOver(traced, func(p *pass) float64 { return float64(p.provNs) / 1e6 }), "ms")
	set("harness.driver_us_per_op", usPerOp(lRoot), "us")
	set("harness.peer_us_per_op", usPerOp(lPeer), "us")
	set("harness.check_us_per_op", usPerOp(lCheck), "us")
	set("system.step_us_per_op", usPerOp(lSystem), "us")
	set("harness.unspanned_frac", medianOver(traced, func(p *pass) float64 { return p.layers.unspanned(p.opsNs) }), "ratio")
	set("runtime.gc_cpu_frac", medianOver(untraced, func(p *pass) float64 {
		if p.totalCPU <= 0 {
			return 0
		}
		return p.gcCPU / p.totalCPU
	}), "ratio")
	set("trace.overhead_ratio", rate(untraced)/rate(traced), "ratio")
	set("error_frac", float64(first.failed)/ops, "ratio")

	// Virtual counts: identical in every pass (checked by digest).
	for k, v := range first.counts {
		set(k, v, unitOf(k))
	}
	// Virtual cycles by cubicle, from the first traced pass.
	t0 := traced[0].out
	for cub, c := range t0.vprof {
		set("vcycles."+cub+"_per_op", float64(c)/ops, "cycles")
	}
	set("trace.dropped", float64(t0.traceDropped), "count")
	// Host SQL latency split by statement class.
	if sw, ok := w.(*sqlWorkload); ok {
		for rw, name := range []string{"read", "write"} {
			set("sql."+name+".host_us_p50", medianOver(traced, func(p *pass) float64 {
				var v []float64
				for op, ns := range p.layers.opSystem {
					if sw.isWrite(int(op)) == (rw == 1) {
						v = append(v, float64(ns)/1e3)
					}
				}
				return median(v)
			}), "us")
		}
	}
	// Host CPU and allocations by module.
	if prof.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: warning: CPU profile:", prof.err)
	}
	fracs := func(prefix string, acc map[string]float64) {
		var total float64
		for _, v := range acc {
			total += v
		}
		for _, mod := range hostModules {
			v := 0.0
			if total > 0 {
				v = acc[mod] / total
			}
			set(prefix+mod+"_frac", v, "ratio")
		}
	}
	fracs("host.cpu.", prof.samples)
	fracs("host.alloc.", heapByModule())
	keepListed(m)
}

// unitOf names the unit of a per-layer count from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_skew"):
		return "ratio"
	case strings.HasSuffix(name, "kb_per_op"), strings.HasSuffix(name, "_kb"):
		return "KiB"
	case strings.HasSuffix(name, "_mb"):
		return "MiB"
	case strings.Contains(name, "_us_"):
		return "us"
	case strings.HasPrefix(name, "vcycles."):
		return "cycles"
	}
	return "count"
}

// keepListed makes the metric set exactly perLayer: listed metrics a
// workload does not exercise read 0.
func keepListed(m map[string]metric) {
	listed := map[string]bool{}
	for _, name := range perLayer {
		listed[name] = true
		if _, ok := m[name]; !ok {
			m[name] = metric{0, unitOf(name)}
		}
	}
	for name := range m {
		if !listed[name] {
			delete(m, name)
		}
	}
}

// perLayer is the fixed per-layer metric list, as in BENCHMARK.json.
// Call edges are those carrying at least 1% of a workload's crossings;
// vcycles.MONITOR includes the open loop's idle gaps between arrivals.
var perLayer = append([]string{
	"boot.boot_ms", "boot.provision_ms",
	"harness.driver_us_per_op", "harness.peer_us_per_op", "harness.check_us_per_op",
	"harness.unspanned_frac",
	"system.step_us_per_op", "system.steps_per_op", "system.idle_step_frac",
	"cubicle.crossings_per_op", "cubicle.wrpkru_per_op",
	"calls.NGINX-LWIP_per_op", "calls.NGINX-VFSCORE_per_op", "calls.NGINX-ALLOC_per_op",
	"calls.NGINX-PLAT_per_op", "calls.NGINX-TIME_per_op", "calls.LWIP-NETDEV_per_op",
	"calls.LWIP-ALLOC_per_op", "calls.VFSCORE-RAMFS_per_op", "calls.SQLITE-VFSCORE_per_op",
	"calls.MONITOR-NGINX_per_op",
	"cubicle.trap_maps_per_op", "cubicle.retags_per_op", "cubicle.copy_kb_per_op",
	"cubicle.window_ops_per_op", "cubicle.window_search_steps_per_op",
	"cubicle.tlb_hit_ratio", "cubicle.tlb_misses_per_op",
	"cubicle.checkpoints", "cubicle.checkpoint_kb", "cubicle.warm_restarts",
	"cubicle.cold_restarts", "cubicle.contained_faults",
	"vcycles.NGINX_per_op", "vcycles.LWIP_per_op", "vcycles.NETDEV_per_op",
	"vcycles.VFSCORE_per_op", "vcycles.RAMFS_per_op", "vcycles.ALLOC_per_op",
	"vcycles.PLAT_per_op", "vcycles.TIME_per_op", "vcycles.SQLITE_per_op",
	"vcycles.MONITOR_per_op",
	"netdev.frames_per_op", "netdev.kb_per_op", "netdev.drops",
	"httpd.conns_peak", "ramfs.ops_per_op",
	"sqldb.cache_hit_ratio", "sqldb.page_reads_per_op", "sqldb.page_writes_per_op",
	"sqldb.fsyncs_per_op", "sqldb.journal_pages_per_op",
	"sql.read.vlat_us_p50", "sql.write.vlat_us_p50", "sql.read.host_us_p50", "sql.write.host_us_p50",
	"ualloc.arena_mb",
	"cluster.retries_per_kop", "cluster.hedges_per_kop", "cluster.failovers", "cluster.drains",
	"cluster.readmits", "cluster.route_faults", "cluster.backend_skew",
	"runtime.gc_cpu_frac", "trace.overhead_ratio", "trace.dropped",
	"openloop.late_us_p99", "error_frac",
}, hostMetricNames()...)

func hostMetricNames() []string {
	var out []string
	for _, kind := range []string{"cpu", "alloc"} {
		for _, m := range hostModules {
			out = append(out, "host."+kind+"."+m+"_frac")
		}
	}
	return out
}
