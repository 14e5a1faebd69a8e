package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 {
		t.Fatal("zero-value accumulator should report zeros")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; the unbiased sample
	// variance is 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Max() != 9 {
		t.Errorf("Max = %v, want 9", a.Max())
	}
}

// Property: the streaming mean matches a direct two-pass computation.
func TestAccumulatorMatchesDirect(t *testing.T) {
	f := func(xs []float64) bool {
		var a Accumulator
		sum := 0.0
		ok := true
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
				ok = false
				break
			}
			a.Add(x)
			sum += x
		}
		if !ok || len(xs) == 0 {
			return true
		}
		want := sum / float64(len(xs))
		scale := math.Max(1, math.Abs(want))
		return math.Abs(a.Mean()-want)/scale < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReservoirSmall(t *testing.T) {
	r := NewReservoir(10)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 5; i++ {
		r.Add(float64(i), rng.Int63n)
	}
	if got := r.Percentile(0); got != 1 {
		t.Errorf("P0 = %v, want 1", got)
	}
	if got := r.Percentile(1); got != 5 {
		t.Errorf("P100 = %v, want 5", got)
	}
	if got := r.Percentile(0.5); got != 3 {
		t.Errorf("P50 = %v, want 3", got)
	}
}

func TestReservoirBounded(t *testing.T) {
	r := NewReservoir(100)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		r.Add(rng.Float64(), rng.Int63n)
	}
	if len(r.samples) != 100 {
		t.Fatalf("reservoir grew to %d samples, cap 100", len(r.samples))
	}
	// A uniform [0,1) stream should have a median near 0.5.
	med := r.Percentile(0.5)
	if med < 0.3 || med > 0.7 {
		t.Errorf("median of uniform stream = %v, want near 0.5", med)
	}
}

// TestReservoirPercentileMatchesSort checks Percentile against
// sort.Float64s and the same interpolation over every size from 1 to 300
// and a spread of sizes up to 5,000, with duplicates and negative values,
// on one reservoir reused through Reset.
func TestReservoirPercentileMatchesSort(t *testing.T) {
	const maxN = 5000
	r := NewReservoir(maxN)
	rng := rand.New(rand.NewSource(3))
	ps := []float64{0, 0.001, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1}
	var sizes []int
	for n := 1; n <= 300; n++ {
		sizes = append(sizes, n)
	}
	for n := 301; n < maxN; n += 157 {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, maxN)
	vals := make([]float64, 0, maxN)
	for _, n := range sizes {
		r.Reset()
		vals = vals[:0]
		for i := 0; i < n; i++ {
			var x float64
			switch rng.Intn(3) {
			case 0: // duplicates, negatives included
				x = float64(rng.Intn(41)-20) / 4
			case 1:
				x = rng.NormFloat64() * 1e3
			default:
				x = rng.ExpFloat64() * 250
			}
			vals = append(vals, x)
			r.Add(x, rng.Int63n)
		}
		want := append([]float64(nil), vals...)
		sort.Float64s(want)
		for _, p := range ps {
			w := want[len(want)-1]
			if p < 1 {
				pos := p * float64(len(want)-1)
				lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
				w = want[lo]
				if lo != hi {
					frac := pos - float64(lo)
					w = want[lo]*(1-frac) + want[hi]*frac
				}
			}
			if got := r.Percentile(p); got != w {
				t.Fatalf("n=%d: P%v = %v, sort.Float64s gives %v", n, p, got, w)
			}
		}
	}
}

func TestEmptyReservoir(t *testing.T) {
	r := NewReservoir(4)
	if got := r.Percentile(0.5); got != 0 {
		t.Errorf("empty reservoir percentile = %v, want 0", got)
	}
}

func TestHarmonic(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {1, 1}, {2, 1.5}, {3, 1.5 + 1.0/3},
		{10, 2.9289682539682538},
	}
	for _, c := range cases {
		if got := Harmonic(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Harmonic(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// Property: H_n is increasing and H_n <= 1 + ln(n) for n >= 1.
func TestHarmonicBounds(t *testing.T) {
	f := func(m uint8) bool {
		n := int(m)%500 + 1
		h := Harmonic(n)
		return h > Harmonic(n-1) && h <= 1+math.Log(float64(n))+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
