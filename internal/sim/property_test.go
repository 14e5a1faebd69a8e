package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"tapejuke/internal/core"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
)

// randomConfig draws a plausible configuration from the full supported
// space: any scheduler, either queuing model, replication, placement,
// partial fill, clustering.
func randomConfig(rng *rand.Rand) Config {
	scheds := []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewFIFO() },
		func() sched.Scheduler { return sched.NewStatic(sched.Policy(rng.Intn(5))) },
		func() sched.Scheduler { return sched.NewDynamic(sched.Policy(rng.Intn(5))) },
		func() sched.Scheduler { return core.NewEnvelope(core.Variant(rng.Intn(3))) },
	}
	cfg := Config{
		BlockMB:        16,
		TapeCapMB:      7168,
		Tapes:          2 + rng.Intn(9),
		HotPercent:     float64(rng.Intn(11)),
		ReadHotPercent: float64(rng.Intn(81)),
		StartPos:       rng.Float64(),
		Scheduler:      scheds[rng.Intn(len(scheds))](),
		Horizon:        30_000,
		Seed:           rng.Int63(),
	}
	cfg.Replicas = rng.Intn(cfg.Tapes)
	if rng.Intn(2) == 0 && cfg.HotPercent > 0 {
		cfg.Kind = layout.Vertical
	}
	if rng.Intn(2) == 0 {
		cfg.QueueLength = 1 + rng.Intn(140)
	} else {
		cfg.MeanInterarrival = 20 + rng.Float64()*400
	}
	if rng.Intn(3) == 0 {
		cfg.SequentialProb = rng.Float64() * 0.9
	}
	if rng.Intn(4) == 0 {
		cfg.DataBlocks = 100 + rng.Intn(cfg.Tapes*400)
		cfg.PackAfterData = rng.Intn(2) == 0
	}
	return cfg
}

// Property: every runnable random configuration satisfies the global
// invariants -- request conservation, non-negative buckets, queue-length
// consistency, and per-tape read accounting.
func TestEngineInvariantsAcrossGrid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := randomConfig(rng)
		res, err := Run(cfg)
		if err != nil {
			// Some random corners are legal rejections (e.g. vertical hot
			// set exceeding one tape, partial fill too small for replicas).
			return true
		}
		outstanding := res.TotalArrivals - res.TotalCompleted
		if outstanding < 0 {
			t.Logf("negative outstanding: %+v", res)
			return false
		}
		if cfg.QueueLength > 0 && outstanding != int64(cfg.QueueLength) {
			t.Logf("closed model outstanding %d != %d", outstanding, cfg.QueueLength)
			return false
		}
		if res.LocateSeconds < 0 || res.ReadSeconds < 0 || res.SwitchSeconds < 0 || res.IdleSeconds < 0 {
			t.Logf("negative bucket: %+v", res)
			return false
		}
		var tapeReads int64
		for _, n := range res.ReadsPerTape {
			if n < 0 {
				return false
			}
			tapeReads += n
		}
		if tapeReads != res.Completed {
			t.Logf("per-tape reads %d != completed %d", tapeReads, res.Completed)
			return false
		}
		if res.Completed > 0 && (res.MeanResponseSec <= 0 ||
			res.MeanResponseSec > res.MaxResponseSec+1e-9) {
			t.Logf("response stats inconsistent: %+v", res)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property (the paper's Question 6 as a statistical statement): under full
// replication the envelope scheduler's throughput dominates dynamic
// max-bandwidth across seeds -- never materially worse, better on average.
func TestEnvelopeDominatesDynamicUnderReplication(t *testing.T) {
	var envAcc, dynAcc stats.Accumulator
	for seed := int64(1); seed <= 5; seed++ {
		run := func(s sched.Scheduler) float64 {
			cfg := quickCfg(s)
			cfg.Replicas = 9
			cfg.Kind = layout.Vertical
			cfg.StartPos = 1
			cfg.Seed = seed
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res.ThroughputKBps
		}
		env := run(core.NewEnvelope(core.MaxBandwidth))
		dyn := run(sched.NewDynamic(sched.MaxBandwidth))
		envAcc.Add(env)
		dynAcc.Add(dyn)
		if env < dyn*0.97 {
			t.Errorf("seed %d: envelope %.1f materially below dynamic %.1f", seed, env, dyn)
		}
	}
	if envAcc.Mean() <= dynAcc.Mean() {
		t.Errorf("mean envelope %.1f should beat mean dynamic %.1f",
			envAcc.Mean(), dynAcc.Mean())
	}
	if math.IsNaN(envAcc.Mean()) {
		t.Fatal("no data")
	}
}
