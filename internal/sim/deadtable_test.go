package sim

import (
	"fmt"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
)

// deadTableCfg is a small closed jukebox (four tapes of 100 blocks, NR 2)
// whose copies escalate to dead both ways during the run: a read retried
// once after a 30 % transient failure exhausts its budget about one time
// in eleven, and latent errors develop early enough for user reads and
// repair reads to find them.
func deadTableCfg(seed int64) Config {
	return Config{
		BlockMB: 16, TapeCapMB: 1600, Tapes: 4, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 100, Replicas: 2, QueueLength: 8,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   300_000, Seed: seed,
		Faults: faults.Config{
			ReadTransientProb: 0.3, BadBlocksPerTape: 1, BadBlockRangeLen: 2,
			LatentErrorsPerTape: 3, LatentMeanOnsetSec: 20_000,
			Retry: faults.RetryPolicy{MaxRetries: 1},
		},
		Repair: RepairConfig{Enable: true},
	}
}

// checkDeadTable compares, at one kernel step, what the injector reports
// dead with what the schedulers and the repair planner read: on an up
// tape a copy is readable through Shared.CopyOK exactly when the injector
// has not marked it, and the planner counts the same live copies.
func checkDeadTable(e *engine) error {
	lay := e.sh.Layout
	for t := 0; t < lay.Tapes(); t++ {
		if !e.sh.Up(t) {
			continue
		}
		for _, s := range lay.TapeContents(t) {
			c := layout.Replica{Tape: t, Pos: s.Pos}
			if e.sh.CopyOK(c) == e.flt.inj.CopyDead(t, s.Pos) {
				return fmt.Errorf("at %v s: copy %v reads OK=%v, the injector says dead=%v",
					e.now, c, e.sh.CopyOK(c), e.flt.inj.CopyDead(t, s.Pos))
			}
		}
	}
	for b := 0; b < lay.NumBlocks(); b++ {
		blk := layout.BlockID(b)
		live := 0
		for _, c := range lay.Replicas(blk) {
			if e.sh.CopyOK(c) {
				live++
			}
		}
		if got := e.rep.pl.LiveCopies(blk); got != live {
			return fmt.Errorf("at %v s: the planner counts %d live copies of block %d, the scheduler state %d",
				e.now, got, b, live)
		}
	}
	return nil
}

// TestDeadCopyVisibleOnSameStep checks at every kernel step that a copy
// escalated mid-run -- after retry exhaustion, or when a read finds a
// latent error -- reads dead through Shared.CopyOK and the planner at the
// very next step, both kinds of escalation having happened. A reused
// Session must start the next run with a clean table: nothing marked on a
// fault run without bad blocks, and no table at all on a fault-free run.
func TestDeadCopyVisibleOnSameStep(t *testing.T) {
	var dead map[layout.Replica]bool
	var exhausted, latent int
	stepAudit = func(e *engine) error {
		first := dead == nil // the run's first step sees the injected bad blocks
		if first {
			dead = make(map[layout.Replica]bool)
		}
		lay := e.sh.Layout
		for t := 0; t < lay.Tapes(); t++ {
			for p := 0; p < lay.TapeCap(); p++ {
				c := layout.Replica{Tape: t, Pos: p}
				if !e.flt.inj.CopyDead(t, p) || dead[c] {
					continue
				}
				dead[c] = true
				if first {
					continue
				}
				// Marked since the last step: an escalation.
				if _, found := e.flt.latentDet[packCopyKey(t, p)]; found {
					latent++
				} else {
					exhausted++
				}
			}
		}
		return checkDeadTable(e)
	}
	t.Cleanup(func() { stepAudit = nil })

	sess := NewSession()
	for seed := int64(1); seed <= 3; seed++ {
		cfg := deadTableCfg(seed)
		if seed == 3 {
			// No bad block at the start: the table's storage arrives with
			// the first escalation, and every reader must see it.
			cfg.Faults.BadBlocksPerTape = 0
		}
		dead = nil
		if _, err := sess.Run(cfg); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	if exhausted == 0 || latent == 0 {
		t.Fatalf("runs escalated %d copies after retry exhaustion and %d latent errors; want both > 0",
			exhausted, latent)
	}
	t.Logf("%d retry exhaustions and %d latent errors escalated", exhausted, latent)

	clean := deadTableCfg(4)
	clean.Faults = faults.Config{TapeMTBFSec: 1e12}
	clean.Repair = RepairConfig{}
	stepAudit = func(e *engine) error {
		lay := e.sh.Layout
		for t := 0; t < lay.Tapes(); t++ {
			for p := 0; p < lay.TapeCap(); p++ {
				if e.sh.DeadCopy.Has(t, p) {
					return fmt.Errorf("the reused session's table marks (%d, %d) dead", t, p)
				}
			}
		}
		return nil
	}
	if _, err := sess.Run(clean); err != nil {
		t.Fatal(err)
	}
	free := deadTableCfg(5)
	free.Faults, free.Repair = faults.Config{}, RepairConfig{}
	stepAudit = func(e *engine) error {
		if e.sh.DeadCopy != nil || e.sh.Down != nil {
			return fmt.Errorf("a fault-free run on a reused session has masks armed")
		}
		return nil
	}
	if _, err := sess.Run(free); err != nil {
		t.Fatal(err)
	}
}
