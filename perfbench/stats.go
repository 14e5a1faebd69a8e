package main

import (
	"math"
	"sort"
)

// quartiles returns the first quartile, the median and the third quartile
// of xs with the method of Python's statistics.quantiles(xs, n=4), the
// default "exclusive" one, so the steadiness mode reports the same
// spreads as a reader recomputing them from the raw values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(p float64) float64 {
		h := float64(n+1) * p
		j := int(h)
		switch {
		case j < 1:
			return s[0]
		case j >= n:
			return s[n-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), median(s), at(0.75)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// maxOverMean returns max/mean of non-negative values, 1 for an empty or
// all-zero input (nothing to be imbalanced about).
func maxOverMean(xs []float64) float64 {
	var max, sum float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	if sum <= 0 {
		return 1
	}
	return max / (sum / float64(len(xs)))
}

// ratio is a/b, or 0 when b is zero (a layer that never ran).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
