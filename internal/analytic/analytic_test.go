package analytic

import (
	"math"
	"testing"
	"testing/quick"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

func uniformLayout(t *testing.T) *layout.Layout {
	t.Helper()
	l, err := layout.Build(layout.Config{Tapes: 10, TapeCapBlocks: 448})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func skewedLayout(t *testing.T, sp float64) *layout.Layout {
	t.Helper()
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10, StartPos: sp,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestRequestMassUniform(t *testing.T) {
	l := uniformLayout(t)
	mass := RequestMass(l, 0)
	sum := 0.0
	for tape, m := range mass {
		if math.Abs(m-0.1) > 0.001 {
			t.Errorf("tape %d mass = %v, want 0.1", tape, m)
		}
		sum += m
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("masses sum to %v", sum)
	}
}

func TestRequestMassSkewVertical(t *testing.T) {
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10, Kind: layout.Vertical,
	})
	if err != nil {
		t.Fatal(err)
	}
	// All hot data on tape 0, 40% of requests hot: tape 0 carries 40%.
	mass := RequestMass(l, 40)
	if math.Abs(mass[0]-0.4) > 0.01 {
		t.Errorf("hot tape mass = %v, want 0.40", mass[0])
	}
}

func TestPositionCDFMonotoneComplete(t *testing.T) {
	l := skewedLayout(t, 0)
	for tape := 0; tape < l.Tapes(); tape++ {
		cdf := PositionCDF(l, 40, tape)
		prev := 0.0
		for p, c := range cdf {
			if c < prev-1e-12 {
				t.Fatalf("tape %d: CDF decreases at %d", tape, p)
			}
			prev = c
		}
		if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			t.Errorf("tape %d: CDF ends at %v", tape, cdf[len(cdf)-1])
		}
	}
}

// The paper's Section 4.3 argument, analytically: hot data at the tape
// beginning lowers the mean request position (and hence mean locate
// distance) compared with hot data at the end.
func TestPlacementShiftsMeanPosition(t *testing.T) {
	begin := skewedLayout(t, 0)
	end := skewedLayout(t, 1)
	mb := ExpectedMaxPosition(PositionCDF(begin, 40, 0), 1)
	me := ExpectedMaxPosition(PositionCDF(end, 40, 0), 1)
	if mb >= me {
		t.Errorf("mean position with hot-at-start %v should be below hot-at-end %v", mb, me)
	}
}

func TestExpectedMaxPosition(t *testing.T) {
	// Uniform over 100 positions: E[max of k] ~ 100*k/(k+1) - 1.
	cdf := make([]float64, 100)
	for i := range cdf {
		cdf[i] = float64(i+1) / 100
	}
	for _, k := range []int{1, 4, 20} {
		got := ExpectedMaxPosition(cdf, k)
		want := 100*float64(k)/float64(k+1) - 1
		if math.Abs(got-want) > 2 {
			t.Errorf("E[max of %d] = %v, want about %v", k, got, want)
		}
	}
	if ExpectedMaxPosition(cdf, 0) != 0 || ExpectedMaxPosition(nil, 3) != 0 {
		t.Error("degenerate inputs should return 0")
	}
	// More draws push the maximum outward.
	if ExpectedMaxPosition(cdf, 10) <= ExpectedMaxPosition(cdf, 2) {
		t.Error("E[max] must grow with k")
	}
}

// The headline cross-check: the closed-form throughput estimate must agree
// with the simulator to first order on a symmetric configuration serviced
// by the fair scheduler it models (static round-robin).
func TestAnalyticMatchesSimulation(t *testing.T) {
	prof := tapemodel.EXB8505XL()
	for _, queue := range []int{20, 60, 140} {
		l := uniformLayout(t)
		est, err := ClosedThroughput(prof, 16, l, 0, queue)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
			QueueLength: queue,
			Scheduler:   sched.NewStatic(sched.RoundRobin),
			Horizon:     400_000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rel := math.Abs(est.ThroughputKBps-res.ThroughputKBps) / res.ThroughputKBps
		if rel > 0.15 {
			t.Errorf("queue %d: analytic %.1f KB/s vs simulated %.1f KB/s (%.0f%% apart)",
				queue, est.ThroughputKBps, res.ThroughputKBps, rel*100)
		}
	}
}

func TestClosedThroughputErrors(t *testing.T) {
	l := uniformLayout(t)
	if _, err := ClosedThroughput(tapemodel.EXB8505XL(), 16, l, 0, 0); err == nil {
		t.Error("zero queue accepted")
	}
	if _, err := ClosedThroughput(nil, 16, l, 0, 10); err == nil {
		t.Error("nil profile accepted")
	}
}

func TestEstimateShape(t *testing.T) {
	prof := tapemodel.EXB8505XL()
	l := uniformLayout(t)
	small, _ := ClosedThroughput(prof, 16, l, 0, 20)
	large, _ := ClosedThroughput(prof, 16, l, 0, 140)
	// Bigger batches amortize the switch: throughput grows with queue.
	if large.ThroughputKBps <= small.ThroughputKBps {
		t.Errorf("throughput should grow with queue: %v vs %v",
			small.ThroughputKBps, large.ThroughputKBps)
	}
	if large.RequestsPerSweep <= small.RequestsPerSweep {
		t.Error("requests per sweep should grow with queue")
	}
	if small.CycleSeconds != small.SweepSeconds+small.SwitchSeconds {
		t.Error("cycle decomposition broken")
	}
}

// AssessOpen must agree with simulated open-model behaviour: a workload it
// calls saturated accumulates a backlog; one it calls light idles.
func TestAssessOpenAgainstSimulation(t *testing.T) {
	prof := tapemodel.EXB8505XL()
	l, err := layout.Build(layout.Config{Tapes: 10, TapeCapBlocks: 448, HotPercent: 10})
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(interarrival float64) *sim.Result {
		res, err := sim.Run(sim.Config{
			BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
			HotPercent: 10, ReadHotPercent: 40,
			MeanInterarrival: interarrival,
			Scheduler:        sched.NewDynamic(sched.MaxBandwidth),
			Horizon:          400_000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	heavy, err := AssessOpen(prof, 16, l, 40, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !heavy.Saturated {
		t.Errorf("20 s interarrival called unsaturated: %+v", heavy)
	}
	if res := simulate(20); res.TotalArrivals-res.TotalCompleted < 100 {
		t.Errorf("simulation disagrees: backlog only %d", res.TotalArrivals-res.TotalCompleted)
	}

	light, err := AssessOpen(prof, 16, l, 40, 500)
	if err != nil {
		t.Fatal(err)
	}
	if light.Saturated {
		t.Errorf("500 s interarrival called saturated: %+v", light)
	}
	if res := simulate(500); res.IdleSeconds == 0 {
		t.Error("simulation disagrees: no idle time at light load")
	}

	if _, err := AssessOpen(prof, 16, l, 40, 0); err == nil {
		t.Error("zero interarrival accepted")
	}
}

func TestBlockSizeKnee(t *testing.T) {
	prof := tapemodel.EXB8505XL()
	const overhead = 50 // a representative per-request positioning cost
	at8 := BlockSizeKnee(prof, overhead, 8)
	at16 := BlockSizeKnee(prof, overhead, 16)
	at64 := BlockSizeKnee(prof, overhead, 64)
	if !(at8 < at16 && at16 < at64) {
		t.Errorf("knee not monotone: %v %v %v", at8, at16, at64)
	}
	// The Figure 3 argument: at 16 MB the effective rate passes ~30% of
	// streaming for a ~50 s overhead; at 8 MB it is far below.
	if at16 < 0.30 {
		t.Errorf("16 MB effective fraction = %v, expected above 0.30", at16)
	}
	ratio := at16 / at8
	if ratio < 1.4 || ratio > 2.2 {
		t.Errorf("16/8 MB ratio = %v, expected near the paper's ~2", ratio)
	}
	if BlockSizeKnee(prof, overhead, 0) != 0 {
		t.Error("zero block size should yield 0")
	}
}

// Property: ExpectedMaxPosition is monotone in k and bounded by the support.
func TestExpectedMaxProperty(t *testing.T) {
	f := func(raw []uint8, k1, k2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		total := 0.0
		for _, v := range raw {
			total += float64(v) + 1
		}
		cdf := make([]float64, len(raw))
		run := 0.0
		for i, v := range raw {
			run += float64(v) + 1
			cdf[i] = run / total
		}
		a, b := int(k1)%30+1, int(k2)%30+1
		if a > b {
			a, b = b, a
		}
		ea, eb := ExpectedMaxPosition(cdf, a), ExpectedMaxPosition(cdf, b)
		return ea <= eb+1e-9 && eb <= float64(len(raw)-1)+1e-9 && ea >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
