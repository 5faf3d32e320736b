package main

import "math"

// rng is splitmix64: small, fast, and fixed across Go releases, so a seed
// names the same inputs forever.
type rng struct{ s uint64 }

func newRNG(seed, stream uint64) *rng {
	r := &rng{s: seed*0x9E3779B97F4A7C15 ^ stream}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// text fills n bytes of printable filler.
func (r *rng) text(n int) []byte {
	const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \n"
	b := make([]byte, n)
	for i := 0; i < n; {
		v := r.next()
		for k := 0; k < 8 && i < n; k++ {
			b[i] = alphabet[v&63]
			v >>= 8
			i++
		}
	}
	return b
}

// strataSizes returns n sizes spread log-uniformly over [lo, hi], one per
// stratum, jittered by a seeded amount within the middle half of it: every
// seed gets different sizes but nearly the same distribution, which keeps
// the figures steady across seeds.
func strataSizes(r *rng, n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		f := (float64(i) + 0.25 + 0.5*r.float()) / float64(n)
		out[i] = int(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
	}
	// Shuffle so file index carries no size order.
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
