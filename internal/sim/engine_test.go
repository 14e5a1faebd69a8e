package sim

import (
	"math"
	"reflect"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

// quickCfg is a short closed-queuing run on the paper's jukebox.
func quickCfg(s sched.Scheduler) Config {
	return Config{
		BlockMB:        16,
		TapeCapMB:      7168,
		Tapes:          10,
		HotPercent:     10,
		ReadHotPercent: 40,
		QueueLength:    60,
		Scheduler:      s,
		Horizon:        200_000,
		Seed:           1,
	}
}

func TestClosedRunBasics(t *testing.T) {
	res, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.ThroughputKBps <= 0 || res.MeanResponseSec <= 0 {
		t.Fatalf("degenerate metrics: %+v", res)
	}
	// Conservation: every arrival either completed or is still outstanding.
	outstanding := res.TotalArrivals - res.TotalCompleted
	if outstanding != 60 {
		t.Errorf("outstanding = %d, want the constant queue length 60", outstanding)
	}
	// The closed model holds the queue at exactly QueueLength.
	if math.Abs(res.MeanQueueLen-60) > 0.5 {
		t.Errorf("MeanQueueLen = %v, want 60", res.MeanQueueLen)
	}
	// Closed model never idles.
	if res.IdleSeconds != 0 {
		t.Errorf("closed model idled %v s", res.IdleSeconds)
	}
	// Per-tape read accounting covers every measured completion.
	var tapeReads int64
	for _, n := range res.ReadsPerTape {
		tapeReads += n
	}
	if tapeReads != res.Completed {
		t.Errorf("per-tape reads %d != completions %d", tapeReads, res.Completed)
	}
	// Time decomposition covers the simulated span.
	total := res.LocateSeconds + res.ReadSeconds + res.SwitchSeconds + res.IdleSeconds
	if math.Abs(total-res.SimSeconds) > 1e-6*res.SimSeconds {
		t.Errorf("time decomposition %v != sim time %v", total, res.SimSeconds)
	}
	// Effective rate is a sane fraction of streaming (paper: >30% with a
	// good scheduler at 16 MB).
	frac := res.EffectiveOfStreaming(tapemodel.EXB8505XL())
	if frac < 0.05 || frac > 1 {
		t.Errorf("effective fraction of streaming = %v", frac)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(quickCfg(sched.NewDynamic(sched.MaxRequests)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quickCfg(sched.NewDynamic(sched.MaxRequests)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
	c := quickCfg(sched.NewDynamic(sched.MaxRequests))
	c.Seed = 2
	r2, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, r2) {
		t.Error("different seeds gave bit-identical results")
	}
}

func TestFIFOIsWorst(t *testing.T) {
	fifo, err := Run(quickCfg(sched.NewFIFO()))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []sched.Scheduler{
		sched.NewStatic(sched.MaxRequests),
		sched.NewDynamic(sched.MaxBandwidth),
		core.NewEnvelope(core.MaxBandwidth),
	} {
		res, err := Run(quickCfg(s))
		if err != nil {
			t.Fatal(err)
		}
		if res.ThroughputKBps <= fifo.ThroughputKBps {
			t.Errorf("%s throughput %v should beat FIFO %v",
				s.Name(), res.ThroughputKBps, fifo.ThroughputKBps)
		}
	}
}

// Metric sanity: response percentiles are ordered, the simulated span
// tracks the horizon, and warm-up strictly reduces what is measured.
func TestMetricOrdering(t *testing.T) {
	res, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanResponseSec > res.P95ResponseSec {
		t.Errorf("mean %.1f above p95 %.1f", res.MeanResponseSec, res.P95ResponseSec)
	}
	if res.P95ResponseSec > res.MaxResponseSec {
		t.Errorf("p95 %.1f above max %.1f", res.P95ResponseSec, res.MaxResponseSec)
	}
	if res.SimSeconds < 200_000 || res.SimSeconds > 201_000 {
		t.Errorf("sim span %.0f strays from the 200k horizon", res.SimSeconds)
	}
	if res.MeasuredSeconds >= res.SimSeconds {
		t.Error("warm-up did not reduce the measured span")
	}
	if res.Completed >= res.TotalCompleted {
		t.Error("warm-up completions leaked into the measured count")
	}

	// A larger warm-up fraction strictly reduces measured completions.
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.WarmupFrac = 0.5
	half, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if half.Completed >= res.Completed {
		t.Errorf("warmup 0.5 measured %d completions, warmup 0.05 measured %d",
			half.Completed, res.Completed)
	}
	if half.TotalCompleted != res.TotalCompleted {
		t.Errorf("warm-up changed the physics: %d vs %d total completions",
			half.TotalCompleted, res.TotalCompleted)
	}
}

// The paper notes the envelope algorithm "degenerates into the dynamic
// max-bandwidth algorithm" when nothing is replicated. In this
// implementation the degeneration is exact: with NR-0 the two schedulers
// make identical decisions, so whole simulations agree bit for bit.
func TestEnvelopeDegeneratesExactly(t *testing.T) {
	dyn, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	env, err := Run(quickCfg(core.NewEnvelope(core.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	// Scheduler names differ; everything else must match exactly.
	env.SchedulerName = dyn.SchedulerName
	if !reflect.DeepEqual(dyn, env) {
		t.Errorf("degeneration not exact:\ndynamic:  %+v\nenvelope: %+v", dyn, env)
	}
}

func TestOpenModelIdlesUnderLightLoad(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 2000 // far below service capacity
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleSeconds == 0 {
		t.Error("lightly loaded open system should idle")
	}
	if res.Completed == 0 {
		t.Error("no completions")
	}
	// Under light load the queue stays short.
	if res.MeanQueueLen > 5 {
		t.Errorf("MeanQueueLen = %v under light load", res.MeanQueueLen)
	}
}

func TestOpenModelSaturates(t *testing.T) {
	// An overloaded open system accumulates a backlog: arrivals far exceed
	// completions.
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 5 // far above service capacity
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	backlog := res.TotalArrivals - res.TotalCompleted
	if backlog < 100 {
		t.Errorf("overloaded system backlog = %d, expected a long queue", backlog)
	}
}

func TestMaxCompletionsStopsEarly(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Horizon = 10_000_000
	cfg.MaxCompletions = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 50 {
		t.Errorf("Completed = %d, want 50", res.Completed)
	}
	if res.SimSeconds >= cfg.Horizon {
		t.Error("run did not stop early")
	}
}

func TestEnvelopeRunsWithReplication(t *testing.T) {
	cfg := quickCfg(core.NewEnvelope(core.MaxBandwidth))
	cfg.Replicas = 9
	cfg.StartPos = 1
	cfg.Kind = layout.Vertical
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.TotalArrivals-res.TotalCompleted != 60 {
		t.Errorf("conservation violated: %d arrivals, %d completed",
			res.TotalArrivals, res.TotalCompleted)
	}
}

func TestConfigValidation(t *testing.T) {
	good := quickCfg(sched.NewFIFO())
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero block size", func(c *Config) { c.BlockMB = 0 }},
		{"negative block size", func(c *Config) { c.BlockMB = -1 }},
		{"zero tape capacity", func(c *Config) { c.TapeCapMB = 0 }},
		{"negative tape capacity", func(c *Config) { c.TapeCapMB = -7168 }},
		{"capacity below one block", func(c *Config) { c.TapeCapMB = 1 }},
		{"no tapes", func(c *Config) { c.Tapes = 0 }},
		{"negative tapes", func(c *Config) { c.Tapes = -1 }},
		{"nil scheduler", func(c *Config) { c.Scheduler = nil }},
		{"negative drives", func(c *Config) { c.Drives = -1 }},
		{"more drives than tapes", func(c *Config) { c.Drives = c.Tapes + 1 }},
		{"multi-drive without factory", func(c *Config) { c.Drives = 2 }},
		{"negative queue length", func(c *Config) { c.QueueLength = -1 }},
		{"negative interarrival", func(c *Config) { c.MeanInterarrival = -100 }},
		{"neither workload model", func(c *Config) { c.QueueLength = 0 }},
		{"both workload models", func(c *Config) { c.MeanInterarrival = 100 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"warmup fraction one", func(c *Config) { c.WarmupFrac = 1 }},
		{"negative warmup fraction", func(c *Config) { c.WarmupFrac = -0.1 }},
		{"sequential prob one", func(c *Config) { c.SequentialProb = 1 }},
		{"negative sequential prob", func(c *Config) { c.SequentialProb = -0.5 }},
		{"zipf exponent at most one", func(c *Config) { c.ZipfS = 1 }},
		{"negative zipf exponent", func(c *Config) { c.ZipfS = -2 }},
		{"negative write interarrival", func(c *Config) { c.WriteMeanInterarrival = -1 }},
		{"write reserve eats the tape", func(c *Config) { c.WriteReserveMB = c.TapeCapMB }},
		{"negative write reserve", func(c *Config) { c.WriteReserveMB = -1 }},
		{"negative transient probability", func(c *Config) { c.Faults.ReadTransientProb = -0.1 }},
		{"transient probability above one", func(c *Config) { c.Faults.ReadTransientProb = 1.5 }},
		{"negative bad-block rate", func(c *Config) { c.Faults.BadBlocksPerTape = -1 }},
		{"negative bad-block range", func(c *Config) { c.Faults.BadBlockRangeLen = -2 }},
		{"negative tape MTBF", func(c *Config) { c.Faults.TapeMTBFSec = -1 }},
		{"negative drive MTBF", func(c *Config) { c.Faults.DriveMTBFSec = -1 }},
		{"negative drive repair", func(c *Config) { c.Faults.DriveRepairSec = -1 }},
		{"switch probability above one", func(c *Config) { c.Faults.SwitchFailProb = 2 }},
		{"negative retry budget", func(c *Config) { c.Faults.Retry.MaxRetries = -1 }},
		{"negative backoff", func(c *Config) { c.Faults.Retry.BackoffSec = -1 }},
		{"shrinking backoff", func(c *Config) { c.Faults.Retry.BackoffFactor = 0.5 }},
		{"faults with writes", func(c *Config) {
			c.Faults.ReadTransientProb = 0.01
			c.WriteMeanInterarrival = 500
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(sched.NewFIFO())
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		})
	}
	// Run surfaces layout errors.
	cfg := quickCfg(sched.NewFIFO())
	cfg.Replicas = 20
	if _, err := Run(cfg); err == nil {
		t.Error("impossible replication accepted")
	}
}

func TestSchedulersCompleteAcrossGrid(t *testing.T) {
	// Smoke-test every scheduler against replicated and non-replicated
	// layouts under both queuing models.
	scheds := func() []sched.Scheduler {
		return []sched.Scheduler{
			sched.NewFIFO(),
			sched.NewStatic(sched.RoundRobin),
			sched.NewStatic(sched.MaxRequests),
			sched.NewStatic(sched.MaxBandwidth),
			sched.NewStatic(sched.OldestMaxRequests),
			sched.NewStatic(sched.OldestMaxBandwidth),
			sched.NewDynamic(sched.RoundRobin),
			sched.NewDynamic(sched.MaxRequests),
			sched.NewDynamic(sched.MaxBandwidth),
			sched.NewDynamic(sched.OldestMaxRequests),
			sched.NewDynamic(sched.OldestMaxBandwidth),
			core.NewEnvelope(core.OldestRequest),
			core.NewEnvelope(core.MaxRequests),
			core.NewEnvelope(core.MaxBandwidth),
		}
	}
	for _, nr := range []int{0, 4} {
		for _, open := range []bool{false, true} {
			for _, s := range scheds() {
				cfg := quickCfg(s)
				cfg.Horizon = 50_000
				cfg.Replicas = nr
				if nr > 0 {
					cfg.StartPos = 1
				}
				if open {
					cfg.QueueLength = 0
					cfg.MeanInterarrival = 120
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s nr=%d open=%v: %v", s.Name(), nr, open, err)
				}
				if res.TotalCompleted == 0 {
					t.Errorf("%s nr=%d open=%v: nothing completed", s.Name(), nr, open)
				}
			}
		}
	}
}
