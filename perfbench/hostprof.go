package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
)

// hostModules are the buckets host CPU and allocation samples are
// attributed to: the internal package of the innermost frame that belongs
// to this repository, "perfbench" for the benchmark's own code,
// "runtime_bg" for samples with no repository frame at all (GC workers,
// the scheduler), and "other" for the remaining internal packages.
var hostModules = []string{
	"cubicle", "vm", "mpk", "cycles", "trace", "lwip", "netdev", "httpd", "vfscore",
	"ramfs", "ualloc", "ulibc", "sqldb", "siege", "cluster", "snapshot",
	"perfbench", "runtime_bg", "other",
}

// moduleOf maps a stack, innermost function first, to its bucket.
func moduleOf(funcs []string) string {
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, "cubicleos/internal/"); ok {
			mod := rest
			if i := strings.IndexAny(mod, "./"); i >= 0 {
				mod = mod[:i]
			}
			for _, m := range hostModules {
				if m == mod {
					return m
				}
			}
			return "other"
		}
		if strings.HasPrefix(fn, "main.") {
			return "perfbench"
		}
	}
	return "runtime_bg"
}

// cpuProfiler accumulates CPU profile samples by module over several
// start/stop windows.
type cpuProfiler struct {
	buf     bytes.Buffer
	samples map[string]float64
	err     error
}

func newCPUProfiler() *cpuProfiler { return &cpuProfiler{samples: map[string]float64{}} }

func (p *cpuProfiler) start() {
	p.buf.Reset()
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		p.err = err
	}
}

func (p *cpuProfiler) stop() {
	pprof.StopCPUProfile()
	if p.err != nil {
		return
	}
	if err := addProfileSamples(p.buf.Bytes(), p.samples); err != nil {
		p.err = err
	}
}

// heapByModule attributes the process's sampled heap allocations (bytes
// allocated since start, unbiased as pprof does) to modules.
func heapByModule() map[string]float64 {
	runtime.GC()
	runtime.GC() // publish the last cycle's allocations to the profile
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		frames := runtime.CallersFrames(r.Stack())
		var funcs []string
		for {
			f, more := frames.Next()
			funcs = append(funcs, f.Function)
			if !more {
				break
			}
		}
		out[moduleOf(funcs)] += bytes
	}
	return out
}

// A minimal reader for the gzipped profile.proto pprof writes: enough to
// walk samples to function names.

type pbReader struct {
	b []byte
}

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errors.New("profile: truncated varint")
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next returns the next field: its number, wire type, and the varint
// value or length-delimited bytes.
func (r *pbReader) next() (num int, wt int, v uint64, data []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed64")
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if uint64(len(r.b)) < n {
				return 0, 0, 0, nil, errors.New("profile: truncated field")
			}
			data, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errors.New("profile: truncated fixed32")
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: wire type %d", wt)
	}
	return num, wt, v, data, err
}

// uints decodes a repeated integer field, packed or not.
func uints(wt int, v uint64, data []byte, dst []uint64) ([]uint64, error) {
	if wt == 0 {
		return append(dst, v), nil
	}
	r := pbReader{data}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// addProfileSamples adds a CPU profile's sample counts to acc by module.
func addProfileSamples(gz []byte, acc map[string]float64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	type sample struct{ locs, vals []uint64 }
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string
	r := pbReader{raw}
	for len(r.b) > 0 {
		num, _, _, data, err := r.next()
		if err != nil {
			return err
		}
		switch num {
		case 2: // sample
			var s sample
			sr := pbReader{data}
			for len(sr.b) > 0 {
				n, wt, v, d, err := sr.next()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					s.locs, err = uints(wt, v, d, s.locs)
				case 2:
					s.vals, err = uints(wt, v, d, s.vals)
				}
				if err != nil {
					return err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			lr := pbReader{data}
			for len(lr.b) > 0 {
				n, _, v, d, err := lr.next()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					ln := pbReader{d}
					for len(ln.b) > 0 {
						m, _, v, _, err := ln.next()
						if err != nil {
							return err
						}
						if m == 1 {
							fns = append(fns, v)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			fr := pbReader{data}
			for len(fr.b) > 0 {
				n, _, v, _, err := fr.next()
				if err != nil {
					return err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(data))
		}
	}
	for _, s := range samples {
		var funcs []string
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcName[f]; i < uint64(len(strs)) {
					funcs = append(funcs, strs[i])
				}
			}
		}
		if len(s.vals) > 0 {
			acc[moduleOf(funcs)] += float64(s.vals[0])
		}
	}
	return nil
}
