package main

import (
	"fmt"

	"tapejuke"
	"tapejuke/internal/farm"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/workload"
)

// The traced run needs the internal sim.Config, where a wrapping scheduler,
// arrival process and block source can be plugged in; the public API hides
// that translation. The functions below rebuild it from the public
// configuration. The fidelity check then compares every traced Result with
// the public API's Result field for field, so a drift between this copy
// and the library's own translation fails the benchmark instead of
// skewing it.

// simConfig translates a defaulted public configuration into the internal
// one, leaving the scheduler to the caller.
func simConfig(c tapejuke.Config, prof tapemodel.Positioner) (sim.Config, error) {
	var kind layout.Kind
	switch c.Placement {
	case tapejuke.Horizontal:
		kind = layout.Horizontal
	case tapejuke.Vertical:
		kind = layout.Vertical
	default:
		return sim.Config{}, fmt.Errorf("unknown placement %q", c.Placement)
	}
	sc := sim.Config{
		Profile:          prof,
		BlockMB:          c.BlockMB,
		TapeCapMB:        c.TapeCapMB,
		Tapes:            c.Tapes,
		HotPercent:       c.HotPercent,
		Replicas:         c.Replicas,
		Kind:             kind,
		StartPos:         c.StartPos,
		DataBlocks:       int(c.DataMB / c.BlockMB),
		PackAfterData:    c.PackAfterData,
		ReadHotPercent:   c.ReadHotPercent,
		SequentialProb:   c.SequentialProb,
		ZipfS:            c.ZipfS,
		QueueLength:      c.QueueLength,
		MeanInterarrival: c.MeanInterarrivalSec,
		RAO:              c.RAO,
		Drives:           c.Drives,
		Horizon:          c.HorizonSec,
		WarmupFrac:       c.WarmupFrac,
		MaxCompletions:   c.MaxCompletions,
		Seed:             c.Seed,
		Deadlines:        c.Deadlines,
		Admission:        c.Admission,
		Burst:            c.Burst,
		Degrade:          c.Degrade,
		AgeWeight:        c.AgeWeight,
		Repair:           c.Repair,
		Health:           c.Health,
		Faults:           faultConfig(c.Faults),
	}
	if w := c.Writes; w.MeanInterarrivalSec > 0 {
		sc.WriteMeanInterarrival = w.MeanInterarrivalSec
		sc.WriteReserveMB = w.ReserveMB
		sc.WriteFlushThreshold = w.FlushThreshold
		switch w.Policy {
		case "", tapejuke.WritePiggyback:
			sc.WritePolicy = sim.WritePiggyback
		case tapejuke.WriteIdleOnly:
			sc.WritePolicy = sim.WriteIdleOnly
		case tapejuke.WritePiggybackAndIdle:
			sc.WritePolicy = sim.WritePiggybackAndIdle
		default:
			return sim.Config{}, fmt.Errorf("unknown write policy %q", w.Policy)
		}
	}
	return sc, nil
}

func faultConfig(f tapejuke.FaultConfig) faults.Config {
	return faults.Config{
		ReadTransientProb:   f.ReadTransientProb,
		BadBlocksPerTape:    f.BadBlocksPerTape,
		BadBlockRangeLen:    f.BadBlockRangeLen,
		TapeMTBFSec:         f.TapeMTBFSec,
		DriveMTBFSec:        f.DriveMTBFSec,
		DriveRepairSec:      f.DriveRepairSec,
		SwitchFailProb:      f.SwitchFailProb,
		LatentErrorsPerTape: f.LatentErrorsPerTape,
		LatentMeanOnsetSec:  f.LatentMeanOnsetSec,
		Retry: faults.RetryPolicy{
			MaxRetries:    f.MaxRetries,
			BackoffSec:    f.BackoffSec,
			BackoffFactor: f.BackoffFactor,
		},
		Seed: f.Seed,
	}
}

// arrivalsFor builds the arrival process the engine would derive from the
// configuration's queue, interarrival and burst settings.
func arrivalsFor(sc *sim.Config) (workload.Arrivals, error) {
	b := sc.Burst
	if sc.QueueLength > 0 {
		if b.FlashCount > 0 {
			return &workload.FlashClosedArrivals{QueueLength: sc.QueueLength, FlashAt: b.FlashAt, FlashCount: b.FlashCount}, nil
		}
		return workload.ClosedArrivals{QueueLength: sc.QueueLength}, nil
	}
	if b.Enabled() {
		seed := b.Seed
		if seed == 0 {
			seed = sc.Seed + 5
		}
		return workload.NewBurstArrivals(sc.MeanInterarrival, b.Factor, b.OnFrac, b.Period, b.FlashAt, b.FlashLen, seed)
	}
	return workload.NewPoissonArrivals(sc.MeanInterarrival, sc.Seed+1)
}

// sourceFor builds the hot/cold block generator the engine would derive
// from the configuration, over a layout of the same geometry.
func sourceFor(sc *sim.Config, lay *layout.Layout) (workload.Source, error) {
	if sc.ZipfS > 0 {
		return workload.NewZipfGenerator(lay, sc.ZipfS, sc.Seed)
	}
	g, err := workload.NewGenerator(lay, sc.ReadHotPercent, sc.Seed)
	if err != nil {
		return nil, err
	}
	if err := g.SetSequentialProb(sc.SequentialProb); err != nil {
		return nil, err
	}
	return g, nil
}

// farmPlan is the routed farm workload: one library configuration shared
// by every shard plus the split's per-shard traces.
type farmPlan struct {
	shard tapejuke.Config
	split *farm.SplitResult
}

// shardSeed spaces shard seeds the way tapejuke.RunFarm does.
func shardSeed(base int64, shard int) int64 { return base + int64(shard)*7919 }

// planSpreadFarm rebuilds RunFarm's pre-pass for spread placement --
// placement, tape-death projection, tenants and the split -- with a span
// around each step. Other placements are not benchmarked and are refused.
func planSpreadFarm(fc tapejuke.FarmConfig, prof tapemodel.Positioner, t *tracer) (*farmPlan, error) {
	if fc.Placement != tapejuke.FarmSpread || fc.Shards < 2 {
		return nil, fmt.Errorf("traced farm supports spread placement over at least two shards")
	}
	base := fc.Base
	n := fc.Shards

	ps := t.begin(spanFarmPlacement)
	hl, cl, err := layoutCounts(base, prof)
	if err != nil {
		return nil, err
	}
	stored := hl*(1+base.Replicas) + cl
	shard := base
	shard.Replicas = 0
	shard.DataMB = float64(stored) * base.BlockMB
	shard.HotPercent = 100 * float64(hl*(1+base.Replicas)) / float64(stored)
	lh, lc, err := layoutCounts(shard, prof)
	if err != nil {
		return nil, err
	}
	t.end(ps)

	ds := t.begin(spanFarmDeaths)
	dead, err := projectDeaths(shard, prof, base.Seed, n)
	if err != nil {
		return nil, err
	}
	t.end(ds)

	tenants := make([]farm.Tenant, len(fc.Tenants))
	for i, tc := range fc.Tenants {
		arr, err := workload.NewPoissonArrivals(tc.MeanInterarrivalSec, base.Seed+1+int64(i)*7919)
		if err != nil {
			return nil, err
		}
		rh := tc.ReadHotPercent
		if rh == 0 {
			rh = base.ReadHotPercent
		}
		tenants[i] = farm.Tenant{Arrivals: arr, HotFrac: rh / 100}
	}
	ss := t.begin(spanFarmSplit)
	split, err := farm.Split(farm.SplitConfig{
		Shards:    n,
		Policy:    farm.PlaceSpread,
		Copies:    base.Replicas,
		FarmHot:   n * hl,
		FarmCold:  n * cl,
		LocalHot:  lh,
		LocalCold: lc,
		HotDeadAt: dead,
		Horizon:   base.HorizonSec,
		Tenants:   tenants,
		Seed:      base.Seed + 6,
	})
	if err != nil {
		return nil, err
	}
	t.end(ss)
	return &farmPlan{shard: shard, split: split}, nil
}

// layoutCounts builds the layout a run of c would simulate and returns its
// hot and cold block counts.
func layoutCounts(c tapejuke.Config, prof tapemodel.Positioner) (hot, cold int, err error) {
	sc, err := simConfig(c, prof)
	if err != nil {
		return 0, 0, err
	}
	lc, _, err := sc.LayoutConfig()
	if err != nil {
		return 0, 0, err
	}
	lay, err := layout.Build(lc)
	if err != nil {
		return 0, 0, err
	}
	return lay.NumHot(), lay.NumCold(), nil
}

// projectDeaths computes, per shard, when each local hot block loses its
// last copy, from the fault streams each shard's engine will draw.
func projectDeaths(shard tapejuke.Config, prof tapemodel.Positioner, baseSeed int64, n int) ([][]float64, error) {
	fcf := faultConfig(shard.Faults)
	if fcf.TapeMTBFSec <= 0 && fcf.BadBlocksPerTape <= 0 {
		return nil, nil
	}
	sc, err := simConfig(shard, prof)
	if err != nil {
		return nil, err
	}
	lc, capBlocks, err := sc.LayoutConfig()
	if err != nil {
		return nil, err
	}
	lay, err := layout.Build(lc)
	if err != nil {
		return nil, err
	}
	drives := max(shard.Drives, 1)
	dead := make([][]float64, n)
	for s := range dead {
		fi := fcf
		if fi.Seed == 0 {
			fi.Seed = shardSeed(baseSeed, s) + 3
		}
		inj, err := faults.New(fi, shard.Tapes, drives, capBlocks)
		if err != nil {
			return nil, err
		}
		row := make([]float64, lay.NumHot())
		for b := range row {
			at := 0.0
			for _, cp := range lay.Replicas(layout.BlockID(b)) {
				copyAt := inj.TapeFailTime(cp.Tape)
				if inj.CopyDead(cp.Tape, cp.Pos) {
					copyAt = 0
				}
				at = max(at, copyAt)
			}
			row[b] = at
		}
		dead[s] = row
	}
	return dead, nil
}
