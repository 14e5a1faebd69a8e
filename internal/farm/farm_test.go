package farm

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExpansionFactor(t *testing.T) {
	cases := []struct {
		nr   int
		ph   float64
		want float64
	}{
		{0, 10, 1},
		{9, 10, 1.9},
		{4, 25, 2},
		{9, 0, 1},
		{1, 100, 2},
	}
	for _, c := range cases {
		if got := ExpansionFactor(c.nr, c.ph); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("E(%d,%v) = %v, want %v", c.nr, c.ph, got, c.want)
		}
	}
}

func TestScaledQueueLength(t *testing.T) {
	cases := []struct {
		name string
		base int
		e    float64
		want int
	}{
		{"paper 60 over 1.9", 60, 1.9, 32},
		{"no expansion", 60, 1, 60},
		{"rounds up at half", 3, 2, 2},      // 1.5 -> 2 under round-half-away
		{"rounds down below half", 7, 5, 1}, // 1.4 -> 1
		// The clamp-to-1 edge: base/E < 0.5 would round to zero processes,
		// which a closed queue cannot have. The old int(x+0.5) cast happened
		// to truncate 0.9999 to 0 before the clamp rescued it; math.Round
		// makes the zero explicit and the clamp intentional.
		{"clamp tiny quotient", 1, 10, 1},      // 0.1 -> round 0 -> clamp 1
		{"clamp just below half", 4, 9, 1},     // 0.444 -> round 0 -> clamp 1
		{"half quotient rounds to 1", 1, 2, 1}, // 0.5 -> round 1, no clamp needed
		{"clamp huge expansion", 2, 1e6, 1},
	}
	for _, c := range cases {
		q, err := ScaledQueueLength(c.base, c.e)
		if err != nil || q != c.want {
			t.Errorf("%s: ScaledQueueLength(%d, %v) = %d (%v), want %d",
				c.name, c.base, c.e, q, err, c.want)
		}
	}
	if _, err := ScaledQueueLength(0, 1.5); err == nil {
		t.Error("zero base accepted")
	}
	if _, err := ScaledQueueLength(10, 0.5); err == nil {
		t.Error("expansion below 1 accepted")
	}
}

func TestCostPerformanceRatio(t *testing.T) {
	if r, err := CostPerformanceRatio(110, 100); err != nil || math.Abs(r-1.1) > 1e-12 {
		t.Errorf("ratio = %v (%v), want 1.1", r, err)
	}
	if _, err := CostPerformanceRatio(1, 0); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := CostPerformanceRatio(-1, 10); err == nil {
		t.Error("negative throughput accepted")
	}
}

// Property: E is monotone in NR.
func TestMonotonicityProperty(t *testing.T) {
	f := func(nr1, nr2 uint8, phRaw uint8) bool {
		a, b := int(nr1)%10, int(nr2)%10
		if a > b {
			a, b = b, a
		}
		ph := float64(phRaw % 101)
		return ExpansionFactor(a, ph) <= ExpansionFactor(b, ph)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
