// Benchmarks regenerating each figure of the paper's evaluation at a
// reduced horizon, plus micro-benchmarks of the scheduling hot paths.
//
// Figure benches report figure-level summary metrics alongside ns/op so a
// bench run doubles as a coarse reproduction check:
//
//	go test -bench=Fig -benchmem
//
// For the faithful (10M-second) reproduction use cmd/figures -full.
package tapejuke_test

import (
	"testing"

	"tapejuke"
	"tapejuke/figures"
)

// benchOpts keeps figure benchmarks quick: a 50k-second horizon over three
// workload intensities.
func benchOpts() figures.Options {
	return figures.Options{
		HorizonSec:   50_000,
		QueueLengths: []int{20, 60, 140},
		Seed:         1,
	}
}

// runFigure repeats one figure generator and reports its mean throughput
// across rows (KB/s) as a custom metric.
func runFigure(b *testing.B, gen func(figures.Options) (*figures.Figure, error)) {
	b.Helper()
	var lastMean float64
	for i := 0; i < b.N; i++ {
		f, err := gen(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, r := range f.Rows {
			if r.ThroughputKBps > 0 {
				sum += r.ThroughputKBps
				n++
			}
		}
		if n > 0 {
			lastMean = sum / float64(n)
		}
	}
	if lastMean > 0 {
		b.ReportMetric(lastMean, "KB/s")
	}
}

func BenchmarkFig1LocateModel(b *testing.B)      { runFigure(b, figures.Fig1) }
func BenchmarkFig3TransferSize(b *testing.B)     { runFigure(b, figures.Fig3) }
func BenchmarkFig4SchedulersNoRepl(b *testing.B) { runFigure(b, figures.Fig4) }
func BenchmarkFig5HotPlacement(b *testing.B)     { runFigure(b, figures.Fig5) }
func BenchmarkFig6ReplicaCount(b *testing.B)     { runFigure(b, figures.Fig6) }
func BenchmarkFig7ReplicaPlacement(b *testing.B) { runFigure(b, figures.Fig7) }
func BenchmarkFig8SchedulersRepl(b *testing.B)   { runFigure(b, figures.Fig8) }
func BenchmarkFig9Skew(b *testing.B)             { runFigure(b, figures.Fig9) }
func BenchmarkFig10aExpansion(b *testing.B)      { runFigure(b, figures.Fig10a) }
func BenchmarkFig10bCostPerf(b *testing.B)       { runFigure(b, figures.Fig10b) }

// benchRun measures one full simulation at the given configuration. The
// seed is fixed so every b.N iteration simulates the same workload: with a
// per-iteration seed, ns/op would average over different workloads and the
// KB/s metric (reported from the last iteration only) would not be
// comparable across runs.
func benchRun(b *testing.B, mutate func(*tapejuke.Config)) {
	b.Helper()
	var last *tapejuke.Result
	for i := 0; i < b.N; i++ {
		cfg := tapejuke.Config{HorizonSec: 100_000, Seed: 1}.WithDefaults()
		if mutate != nil {
			mutate(&cfg)
		}
		res, err := tapejuke.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.ThroughputKBps, "KB/s")
		b.ReportMetric(float64(last.Completed), "requests")
	}
}

// Ablation: the envelope algorithm against its dynamic counterpart on the
// replicated layout where the global view should pay off (Section 4.6).
func BenchmarkAblationDynamicMaxBandwidthRepl(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) {
		c.Algorithm = tapejuke.DynamicMaxBandwidth
		c.Placement = tapejuke.Vertical
		c.Replicas = 9
		c.StartPos = 1
	})
}

func BenchmarkAblationEnvelopeMaxBandwidthRepl(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) {
		c.Algorithm = tapejuke.EnvelopeMaxBandwidth
		c.Placement = tapejuke.Vertical
		c.Replicas = 9
		c.StartPos = 1
	})
}

// Ablation: replica placement at the two ends of the tape (Section 4.5).
func BenchmarkAblationReplicasAtStart(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) {
		c.Placement = tapejuke.Vertical
		c.Replicas = 9
		c.StartPos = 0
	})
}

func BenchmarkAblationReplicasAtEnd(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) {
		c.Placement = tapejuke.Vertical
		c.Replicas = 9
		c.StartPos = 1
	})
}

// Ablation: the multi-drive extension (the paper's future work) against the
// single-drive baseline on the same workload.
func BenchmarkAblationOneDrive(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) { c.Drives = 1 })
}

func BenchmarkAblationTwoDrives(b *testing.B) {
	benchRun(b, func(c *tapejuke.Config) { c.Drives = 2 })
}

// Baseline single-run cost of the default configuration.
func BenchmarkSimulationDefault(b *testing.B) {
	benchRun(b, nil)
}

// BenchmarkOverloadWrites runs perfbench's open-writes-overload-2drive
// configuration (seed 1, a 1M-second horizon): bursty open reads on two
// drives beside delta writes, deadlines and shed-oldest admission. It is
// the one benchmark on the write and deadline paths, and it fails if the
// run expires, sheds or flushes nothing.
func BenchmarkOverloadWrites(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tapejuke.Run(tapejuke.Config{
			Algorithm:           tapejuke.EnvelopeMaxBandwidth,
			Drives:              2,
			Replicas:            1,
			HotPercent:          10,
			ReadHotPercent:      60,
			MeanInterarrivalSec: 40,
			Burst:               tapejuke.BurstConfig{Factor: 3, OnFrac: 0.1, Period: 20_000},
			Writes: tapejuke.WriteConfig{
				MeanInterarrivalSec: 120,
				Policy:              tapejuke.WritePiggybackAndIdle,
			},
			Deadlines:  tapejuke.DeadlineConfig{HotTTL: 100_000, ColdTTL: 200_000},
			Admission:  tapejuke.AdmissionConfig{MaxQueue: 400, Policy: tapejuke.AdmitShed},
			HorizonSec: 1_000_000,
			Seed:       1,
		}.WithDefaults())
		if err != nil {
			b.Fatal(err)
		}
		if res.Expired == 0 || res.Shed == 0 || res.WritesFlushed == 0 {
			b.Fatalf("benchmark run expired %d, shed %d and flushed %d; each must be nonzero",
				res.Expired, res.Shed, res.WritesFlushed)
		}
	}
}
