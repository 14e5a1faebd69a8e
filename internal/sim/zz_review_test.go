package sim

import (
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
)

func TestReviewMultiDriveRepairAudit(t *testing.T) {
	setStepAudit(t)
	for seed := int64(1); seed <= 20; seed++ {
		cfg := Config{
			BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
			ReadHotPercent: 100, DataBlocks: 1000, Replicas: 2,
			Drives:      2,
			QueueLength: 0, MeanInterarrival: 300,
			Scheduler:        core.NewEnvelope(core.MaxBandwidth),
			SchedulerFactory: func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) },
			Horizon:          2_000_000, Seed: seed,
			Faults: faults.Config{TapeMTBFSec: 600_000},
			Repair: RepairConfig{Enable: true},
		}
		if _, err := Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}
