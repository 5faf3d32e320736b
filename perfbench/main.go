// Command perfbench is the repository benchmark. It runs one of four
// seeded workloads against the simulated CubicleOS deployments through
// their public Go APIs, checks every output, and prints one JSON result
// line:
//
//	go build -o perfbench . && ./perfbench --workload http-small --seed 1 --seconds 20 --trace 0
//
// or, from the repository root, bash perfbench/run.sh with the same flags.
//
// Workloads (an op is one HTTP request, or one SQL statement for sql):
//
//	http-small  open loop, seeded Poisson arrivals at a fixed virtual rate
//	            (~70% of modelled capacity) for small files over HTTP/1.0.
//	http-large  closed loop, one client, a seeded mix of 256 KiB-2 MiB files.
//	sql         the SQLite deployment; seeded point/index/range reads and
//	            autocommit UPDATE/INSERT statements on speedtest's zbig.
//	fleet       a 4-backend virtual cluster with one seeded backend kill.
//
// Every input (file sizes and contents, paths, arrival times, SQL
// statements, cluster seed and kill time) is a pure function of --seed.
// Seed 1 is the development seed; seed 9001 is held out for confirming
// later claims.
//
// One run takes --seconds of host time. An untraced run first finds
// vcap_rps (a virtual-time figure, so it needs no repeats) and hands the
// memory that sweep used back to the operating system; then, in every
// run, "passes" repeat until the --seconds are up. A pass boots fresh
// deployments (each timed as set-up; three per pass, one for sql), then
// drives the seeded op schedule once on the last of them (timed as the op
// phase). Because each pass starts from an identical fresh system, every
// pass of a run must produce bit-identical virtual-time results; the
// benchmark checks that, and remembers a digest of them per seed under
// -out so later runs of the same source can be compared too.
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. Host figures are medians over passes, but for ops_per_s;
// virtual ones (v = at 2.2 GHz, siege.DefaultRequestFloor left out) come
// from the first pass:
//
//	setup_s          boot plus provisioning of one deployment (median)
//	ops_per_s        ops per host second of the op phase, timed lap by lap
//	                 at each lap's fastest over the passes (laps.go)
//	alloc_kb_per_op  Go heap allocated per op, and allocs_per_op
//	rss_peak_mb      peak resident set during a pass
//	vcycles_per_op   virtual cycles the system spent per op (idle excluded)
//	vlat_ms_p50/p99  virtual op latency; open loops time from the due time
//	goodput_vrps     successful ops per virtual second
//	vcap_rps         open loops: highest rate of a fixed grid meeting the
//	                 p99 limit with nothing failed and no backlog, found by
//	                 bisection on fresh deployments; closed loops (one
//	                 client, no think time): the saturation rate, ops per
//	                 busy virtual second
//
// Failed ops (non-200 responses, sheds, drops, SQL errors) are the result's
// "failed" count; wrong outputs make "correct" false. With --trace 1
// passes alternate between untraced and traced (monitor tracer on, host
// spans recorded around every call into a layer) and the result holds the
// per-layer metrics, host CPU and allocation profiles attributed to
// internal modules, and the tracing overhead.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// workload is one seeded traffic mix.
type workload interface {
	// setup boots and provisions a fresh deployment, tracing on or off.
	setup(rec *recorder, traced bool) error
	// drop lets go of the deployment, so it can be collected.
	drop()
	// run drives the seeded op schedule once against that deployment.
	run(rec *recorder) (*outcome, error)
	// capacity returns vcap_rps, a virtual-time figure, for an open loop,
	// found by a sweep of deployments of its own; a closed loop returns 0,
	// and its vcap_rps is the saturation rate of the first pass.
	capacity() (float64, error)
	// inputs hashes the generated inputs (files, schedule, statements).
	inputs() []byte
}

// outcome is one pass's result: virtual time and counts of simulated
// events, which repeat bit for bit for one seed.
type outcome struct {
	ops, failed int
	// busy is the virtual cycles the system spent serving the ops (idle
	// gaps between open-loop arrivals excluded); elapsed is the virtual
	// span of the op phase.
	busy, elapsed uint64
	// lat holds each successful op's virtual latency in cycles, without
	// siege.DefaultRequestFloor; p50 and p99 are its percentiles.
	lat      []uint64
	p50, p99 uint64
	// goodput is successful ops per virtual second.
	goodput float64
	// wrong counts outputs that failed their check.
	wrong int
	// counts are per-layer virtual counts, keyed by metric name.
	counts map[string]float64
	// vprof is virtual cycles per cubicle over the op phase (traced
	// passes only), and vprofTotal the virtual cycles it must sum to.
	vprof      map[string]uint64
	vprofTotal uint64
	// traceDropped counts trace events lost to ring wrap (traced passes).
	traceDropped uint64
}

func (o *outcome) digest() string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) { binary.LittleEndian.PutUint64(b[:], v); h.Write(b[:]) }
	put(uint64(o.ops))
	put(uint64(o.failed))
	put(uint64(o.wrong))
	put(o.p50)
	put(o.p99)
	put(math.Float64bits(o.goodput))
	put(o.busy)
	put(o.elapsed)
	for _, l := range o.lat {
		put(l)
	}
	keys := make([]string, 0, len(o.counts))
	for k := range o.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(math.Float64bits(o.counts[k]))
	}
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// pass is one boot + op-phase repetition.
type pass struct {
	traced                  bool
	setupNs, bootNs, provNs int64
	opsNs                   int64
	allocBytes, mallocs     uint64
	gcCPU, totalCPU         float64
	rssMB                   float64 // peak resident set during the pass
	out                     *outcome
	layers                  layerTimes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "http-small":
		return newHTTPSmall(seed), nil
	case "http-large":
		return newHTTPLarge(seed), nil
	case "sql":
		return newSQL(seed), nil
	case "fleet":
		return newFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want http-small, http-large, sql or fleet)", name)
}

func main() {
	name := flag.String("workload", "", "workload: http-small, http-large, sql or fleet")
	seed := flag.Uint64("seed", 1, "workload seed (1 = development seed, 9001 = held out)")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans, profiles and digests")
	flag.Parse()
	if *traceMode == 1 {
		// Sample heap allocations finely enough to attribute them by
		// module; set before the workload allocates anything.
		runtime.MemProfileRate = 16 << 10
	}
	if err := run(*name, *seed, *seconds, *traceMode == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, outDir string) error {
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	host := hostRecord()
	hostJSON, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hostJSON)

	var problems []string
	fail := func(format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		problems = append(problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}

	var prof *cpuProfiler
	if traced {
		prof = newCPUProfiler()
	}
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	var vcap float64
	if !traced {
		// The sweep boots many deployments; return their memory before the
		// passes so that rss_peak_mb sees only the pass.
		if vcap, err = w.capacity(); err != nil {
			return fmt.Errorf("capacity sweep: %w", err)
		}
		debug.FreeOSMemory()
	}
	rec := &recorder{}
	var passes []*pass
	var laps lapMin
	minPasses := 3
	if traced {
		minPasses = 4
	}
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		// In a traced run, even passes run untraced (they give the
		// overhead baseline and the CPU profile), odd passes traced.
		p, err := runPass(w, rec, traced && i%2 == 1, prof != nil && i%2 == 0, prof)
		if err != nil {
			return fmt.Errorf("pass %d: %w", i, err)
		}
		passes = append(passes, p)
		if i > 0 && !p.traced && !traced {
			if err := laps.add(rec.laps); err != nil {
				fail("laps: %v", err)
			}
		}
		if p.out.wrong > 0 {
			fail("pass %d: %d outputs differ from what was provisioned or modelled", i, p.out.wrong)
		}
		if i > 0 && p.out.digest() != passes[0].out.digest() {
			fail("pass %d virtual results differ from pass 0 (%s vs %s)", i, p.out.digest(), passes[0].out.digest())
		}
		if p.out.vprof != nil {
			var sum uint64
			for _, c := range p.out.vprof {
				sum += c
			}
			if sum != p.out.vprofTotal {
				fail("per-cubicle virtual profile sums to %d cycles, run took %d", sum, p.out.vprofTotal)
			}
		}
		if err := p.layers.check(p.traced, p.opsNs); err != nil {
			fail("spans: %v", err)
		}
	}
	if time.Now().After(deadline.Add(60 * time.Second)) {
		fmt.Fprintln(os.Stderr, "perfbench: warning: passes overran --seconds by more than a minute")
	}

	first := passes[0].out
	vdigest := first.digest()
	fmt.Printf("# virtual-digest %s seed %d passes %d\n", vdigest, seed, len(passes))
	if msg := checkDigest(outDir, name, seed, host.SourceDigest, vdigest); msg != "" {
		fail("%s", msg)
	}

	res := result{
		Attempted: first.ops,
		Failed:    first.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		layerMetrics(res.Metrics, w, passes, prof)
		if err := writeSpans(outDir, name, seed, rec); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else {
		lapNs := laps.total()
		endToEnd(res.Metrics, passes, vcap, lapNs)
		var wall []float64
		for _, p := range passes[1:] {
			wall = append(wall, float64(p.opsNs))
		}
		fmt.Printf("# op phase ns: median pass %.0f, sum of lap minima %d (%d laps, %d passes)\n",
			median(wall), lapNs, len(laps.ns), laps.passes)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail("metric %s is %v", k, m.Value)
			res.Metrics[k] = metric{Value: 0, Unit: m.Unit}
		}
	}
	res.Correct = len(problems) == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runPass boots a fresh deployment and drives the op schedule once.
func runPass(w workload, rec *recorder, traced, profile bool, prof *cpuProfiler) (*pass, error) {
	p := &pass{traced: traced}
	rec.reset(traced)
	runtime.GC()
	rss := startRSS()
	// Set-up is timed over several deployments; the op phase runs on the
	// last one and the others are garbage.
	n := setupReps(w)
	times := make([]float64, n)
	for i := range times {
		if i > 0 {
			w.drop()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(rec, traced); err != nil {
			rss.end()
			return nil, fmt.Errorf("setup: %w", err)
		}
		times[i] = float64(time.Since(t0))
	}
	p.setupNs = int64(median(times))
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0, tot0 := cpuSeconds()
	if profile {
		prof.start()
	}
	t1 := rec.startLaps()
	out, err := w.run(rec)
	rec.lap()
	p.opsNs = int64(time.Since(t1))
	p.rssMB = rss.end()
	if profile {
		prof.stop()
	}
	if err != nil {
		return nil, err
	}
	gc1, tot1 := cpuSeconds()
	runtime.ReadMemStats(&ms1)
	p.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	p.mallocs = ms1.Mallocs - ms0.Mallocs
	p.gcCPU, p.totalCPU = gc1-gc0, tot1-tot0
	p.out = out
	p.layers = rec.selfTimes()
	p.bootNs, p.provNs = p.layers.self[lBoot]/int64(n), p.layers.self[lProvision]/int64(n)
	return p, nil
}

// setupReps is how many deployments a pass sets up. Set-up is short next
// to the op phase for all workloads but sql, whose set-up builds the
// speedtest tables and takes about two fifths of a pass.
func setupReps(w workload) int {
	if _, ok := w.(*sqlWorkload); ok {
		return 1
	}
	return 3
}

// cpuSeconds reads the runtime's GC and total CPU-time estimates.
func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}

// endToEnd fills the end-to-end metrics from untraced passes, given the
// op phase's sum of lap minima (laps.go). The first pass is a warm-up for
// the host figures: it pays for faulting in memory and growing the heap
// that later passes reuse.
func endToEnd(m map[string]metric, passes []*pass, vcap float64, lapNs int64) {
	var setup, kb, allocs, rss []float64
	o := passes[0].out
	for _, p := range passes[1:] {
		rss = append(rss, p.rssMB)
		n := float64(p.out.ops)
		setup = append(setup, float64(p.setupNs)/1e9)
		kb = append(kb, float64(p.allocBytes)/1024/n)
		allocs = append(allocs, float64(p.mallocs)/n)
	}
	m["setup_s"] = metric{median(setup), "s"}
	m["ops_per_s"] = metric{float64(o.ops) / (float64(lapNs) / 1e9), "1/s"}
	m["alloc_kb_per_op"] = metric{median(kb), "KiB"}
	m["allocs_per_op"] = metric{median(allocs), "count"}
	m["rss_peak_mb"] = metric{median(rss), "MiB"}
	virtualMetrics(m, o)
	if vcap == 0 {
		vcap = closedLoopCapacity(o)
	}
	m["vcap_rps"] = metric{vcap, "1/s"}
}

// virtualMetrics fills the virtual-time end-to-end metrics of one outcome.
func virtualMetrics(m map[string]metric, o *outcome) {
	m["vcycles_per_op"] = metric{float64(o.busy) / float64(o.ops), "cycles"}
	m["vlat_ms_p50"] = metric{cyclesToMs(o.p50), "ms"}
	m["vlat_ms_p99"] = metric{cyclesToMs(o.p99), "ms"}
	m["goodput_vrps"] = metric{o.goodput, "1/s"}
}

const cyclesPerSecond = 2.2e9

// setLatencies sorts lat and fills the percentiles and goodput.
func (o *outcome) setLatencies() {
	sort.Slice(o.lat, func(i, j int) bool { return o.lat[i] < o.lat[j] })
	o.p50, o.p99 = pct(o.lat, 0.50), pct(o.lat, 0.99)
	o.goodput = float64(o.ops-o.failed) / (float64(o.elapsed) / cyclesPerSecond)
}

// closedLoopCapacity is vcap_rps for a closed loop with one client and no
// think time: the system is never idle, so the rate it completes ops at
// is its saturation rate.
func closedLoopCapacity(o *outcome) float64 {
	return float64(o.ops-o.failed) / (float64(o.busy) / cyclesPerSecond)
}

func cyclesToMs(c uint64) float64 { return float64(c) / (cyclesPerSecond / 1e3) }

// pct is the nearest-rank p-quantile of an ascending slice, the rule
// siege.Percentile uses.
func pct(sorted []uint64, p float64) uint64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rssSampler tracks the peak resident set size of the process while a
// pass runs, sampling /proc/self/statm; where that is missing it reads the
// Go runtime's total obtained memory instead.
type rssSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: readRSS()}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.peak = max(s.peak, readRSS())
			}
		}
	}()
	return s
}

// end stops the sampler and returns the peak in MiB.
func (s *rssSampler) end() float64 {
	close(s.stop)
	<-s.done
	return float64(max(s.peak, readRSS())) / (1 << 20)
}

var pageSize = uint64(os.Getpagesize())

func readRSS() uint64 {
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident uint64
		if _, err := fmt.Sscanf(string(b), "%d %d", &size, &resident); err == nil {
			return resident * pageSize
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Sys
}

// checkDigest compares this run's virtual digest with the one recorded by
// an earlier run of the same source and seed, and records it if none was.
// It returns a description of a mismatch, or "".
func checkDigest(dir, name string, seed uint64, source, digest string) string {
	path := filepath.Join(dir, "digests", fmt.Sprintf("%s-%d-%s", name, seed, source))
	if prev, err := os.ReadFile(path); err == nil {
		if p := strings.TrimSpace(string(prev)); p != digest {
			return fmt.Sprintf("virtual results of seed %d differ from an earlier run of the same source (%s vs %s)", seed, digest, p)
		}
		return ""
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		_ = os.WriteFile(path, []byte(digest+"\n"), 0o644) // best effort: only later runs read it
	}
	return ""
}
