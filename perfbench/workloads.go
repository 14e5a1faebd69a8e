package main

import (
	"runtime"

	"tapejuke"
)

// workloadDef is one benchmark input. Single-library workloads run through
// tapejuke.Runner; the farm workload runs through tapejuke.RunFarm. Every
// configuration is a pure function of the simulation seed and a size
// scale (1 for the benchmark, smaller for the package's own test).
type workloadDef struct {
	name string
	why  string
	lib  func(seed int64, scale float64) tapejuke.Config
	farm func(seed int64, scale float64) tapejuke.FarmConfig
	// seeds is the number of distinct simulation seeds one benchmark run
	// derives from --seed. The simulated metrics are medians over them,
	// which keeps their seed-to-seed spread small.
	seeds int
	// passesPerSec sets how many timed passes over the seeds a run makes
	// per second of --seconds (see passes). It is sized so that the
	// passes fill two thirds to nine tenths of the time on a 2-vCPU host.
	passesPerSec float64
}

// workloads lists the benchmark's inputs in presentation order. The why
// strings are the one-line reasons also recorded in BENCHMARK.json.
var workloads = []*workloadDef{
	{
		name:         "closed-envelope-nr9",
		why:          "heaviest scheduler load: envelope Reschedule/OnArrival block every sweep at queue 140 and NR 9",
		lib:          closedEnvelopeNR9,
		seeds:        20,
		passesPerSec: 1.0,
	},
	{
		name:         "open-writes-overload-2drive",
		why:          "only write-path workload: bursty open reads beside delta writes, deadlines and shed-oldest on two drives",
		lib:          openWritesOverload2Drive,
		seeds:        20,
		passesPerSec: 0.56,
	},
	{
		name: "open-faults-repair-scrub",
		why:  "idle-branch workload: faults, repair, scrub and evacuation fill the idle drive while queues stay short",
		lib:  openFaultsRepairScrub,
		// The background work a seed brings varies widely with when tapes
		// fail, so its host cost per request does too: the median over 128
		// seeds still moves by about 8 % (interquartile range) from one
		// set of seeds to the next, over 192 by about 5 %.
		seeds:        192,
		passesPerSec: 0.08,
	},
	{
		name:         "farm-spread-failover",
		why:          "only farm workload: split, router failover and parallel shard runs over 4 spread libraries",
		farm:         farmSpreadFailover,
		seeds:        4,
		passesPerSec: 2.2,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simSeed derives the k-th simulation seed of a benchmark run. Runs are
// spaced far apart so that no two (seed, k) pairs share a shard seed of
// the farm, which spaces its shards by 7919.
func simSeed(base int64, k int) int64 {
	return 1 + base*7_919_000 + int64(k)*1_000_003
}

// closedEnvelopeNR9 is the paper's heaviest scheduler configuration: a
// closed queue of 140 over ten tapes with nine replicas of the hot 10%.
func closedEnvelopeNR9(seed int64, scale float64) tapejuke.Config {
	return tapejuke.Config{
		Algorithm:      tapejuke.EnvelopeMaxBandwidth,
		Replicas:       9,
		HotPercent:     10,
		ReadHotPercent: 40,
		QueueLength:    140,
		HorizonSec:     3_000_000 * scale,
		Seed:           seed,
	}.WithDefaults()
}

// openWritesOverload2Drive puts delta writes beside bursty reads on two
// drives. Every request carries a deadline and passes a bounded admission
// queue; the TTLs and the bound are wide enough that few requests fail.
func openWritesOverload2Drive(seed int64, scale float64) tapejuke.Config {
	return tapejuke.Config{
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
		HorizonSec: 2_000_000 * scale,
		Seed:       seed,
	}.WithDefaults()
}

// openFaultsRepairScrub is a partly filled single-drive library at
// moderate load with every copy-killing fault class on, repair rebuilding
// lost replicas, and the health patrol scrubbing and evacuating in the
// drive's idle time.
func openFaultsRepairScrub(seed int64, scale float64) tapejuke.Config {
	return tapejuke.Config{
		Algorithm:           tapejuke.EnvelopeMaxBandwidth,
		Replicas:            2,
		HotPercent:          100,
		ReadHotPercent:      100,
		DataMB:              16_000,
		MeanInterarrivalSec: 150,
		Faults: tapejuke.FaultConfig{
			ReadTransientProb:   0.01,
			BadBlocksPerTape:    1,
			BadBlockRangeLen:    4,
			TapeMTBFSec:         750_000,
			LatentErrorsPerTape: 2,
			LatentMeanOnsetSec:  100_000,
		},
		Repair:     tapejuke.RepairConfig{Enable: true},
		Health:     tapejuke.HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true},
		HorizonSec: 500_000 * scale,
		Seed:       seed,
	}.WithDefaults()
}

// farmSpreadFailover is four libraries under spread placement (one copy
// of each hot block on two libraries) fed by two tenant classes. Tapes
// fail often enough over the horizon that the router fails requests over
// to the surviving copy holder.
func farmSpreadFailover(seed int64, scale float64) tapejuke.FarmConfig {
	return tapejuke.FarmConfig{
		Shards:    4,
		Placement: tapejuke.FarmSpread,
		Workers:   farmWorkers(4),
		Tenants: []tapejuke.TenantClass{
			{Name: "interactive", MeanInterarrivalSec: 70, ReadHotPercent: 80},
			{Name: "batch", MeanInterarrivalSec: 250, ReadHotPercent: 10},
		},
		Base: tapejuke.Config{
			Algorithm:           tapejuke.EnvelopeMaxBandwidth,
			Replicas:            1,
			HotPercent:          10,
			ReadHotPercent:      60,
			MeanInterarrivalSec: 55,
			Faults:              tapejuke.FaultConfig{TapeMTBFSec: 75_000_000},
			HorizonSec:          5_000_000 * scale,
			Seed:                seed,
		}.WithDefaults(),
	}
}

// farmWorkers caps the farm's shard workers at the CPUs this process may
// use: more goroutines than CPUs would only time-slice.
func farmWorkers(shards int) int {
	if n := runtime.NumCPU(); n < shards {
		return n
	}
	return shards
}
