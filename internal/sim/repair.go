package sim

import (
	"errors"
	"fmt"

	"tapejuke/internal/layout"
	"tapejuke/internal/repair"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
)

// RepairConfig enables the self-healing replication extension: background
// jobs that rebuild lost replicas, promote newly hot blocks, and reclaim
// cold excess copies during drive idle time. It is the repair planner's
// own configuration; see repair.Config for the fields. Zero value:
// disabled.
type RepairConfig = repair.Config

// validateRepair checks the repair extension's configuration.
func (c *Config) validateRepair() error {
	r := c.Repair
	if !r.Enabled() {
		return nil
	}
	if c.WriteMeanInterarrival > 0 {
		return errors.New("sim: the repair model does not cover the write extension")
	}
	if r.HalfLifeSec < 0 {
		return &ConfigError{"Repair.HalfLifeSec", "must be >= 0"}
	}
	if r.PromoteHeat < 0 {
		return &ConfigError{"Repair.PromoteHeat", "must be >= 0"}
	}
	if r.ReclaimHeat < 0 {
		return &ConfigError{"Repair.ReclaimHeat", "must be >= 0"}
	}
	if r.PromoteHeat > 0 && r.ReclaimHeat >= r.PromoteHeat {
		return &ConfigError{"Repair.ReclaimHeat", "must be below PromoteHeat (copies would thrash)"}
	}
	if r.MaxCopies < 0 || r.MaxCopies > c.Tapes {
		return &ConfigError{"Repair.MaxCopies", fmt.Sprintf("must be in [0,%d] (at most one copy per tape)", c.Tapes)}
	}
	if r.ScanRate < 0 {
		return &ConfigError{"Repair.ScanRate", "must be >= 0"}
	}
	return nil
}

// repairState is the engine-side bookkeeping of the repair extension: the
// heat tracker, the job planner, and the time-to-repair accumulator (the
// counters are charged straight into the engine's Result). nil when repair
// is disabled, keeping the default path to a handful of nil checks.
//
// Repair consumes no injector randomness -- tape liveness is a pure time
// comparison and copy liveness a table lookup -- so enabling it leaves the
// fault stream, and with it every non-repair event, bit-identical.
type repairState struct {
	pl   *repair.Planner
	heat *repair.Heat
	mttr stats.Accumulator
}

// initRepair wires the repair subsystem when enabled. Must run after
// initFaults (the planner shares the fault model's liveness tables).
func (e *engine) initRepair() {
	rc := &e.cfg.Repair
	if !rc.Enabled() {
		return
	}
	if rc.HalfLifeSec == 0 {
		rc.HalfLifeSec = 100_000
	}
	if rc.MaxCopies == 0 {
		rc.MaxCopies = 1 + e.cfg.Replicas
	}
	lay := e.sh.Layout
	heat := repair.NewHeat(lay.NumBlocks(), rc.HalfLifeSec)
	pl := repair.New(lay, heat, *rc, e.sh.Down, e.sh.DeadCopy)
	e.rep = &repairState{pl: pl, heat: heat}
}

// idleRepairOp runs background repair on drive d when it would otherwise
// go idle: one job step (a surviving-copy read or a new-copy write) per
// operation, hottest block first, preceded by a bounded promote/reclaim
// scan. Returns whether an operation was issued.
func (e *engine) idleRepairOp(d int) bool {
	rp := e.rep
	if rp == nil {
		return false
	}
	e.healthEvacScan()
	rp.pl.Scan(e.now, e.reclaimCopy)
	rp.pl.Rank(e.now)
	for j := rp.pl.Next(); j != nil; j = rp.pl.Next() {
		if j.Busy {
			// Another drive is executing this job's current step.
			continue
		}
		switch j.Step {
		case repair.StepRead:
			if e.issueRepairRead(d, j) {
				return true
			}
		case repair.StepWrite:
			if e.issueRepairWrite(d, j) {
				return true
			}
		}
	}
	return false
}

// issueRepairRead runs job j's read step on drive d: mount a surviving
// copy's tape if needed and read the copy into the drive buffer. The step
// completes at issue resolution (no injector draws), so the job advances
// to its write step immediately; interruption before the write resumes
// here with the read intact. A failed load, or a source tape that died
// while mounted, leaves the job at its read step to retry another copy.
func (e *engine) issueRepairRead(d int, j *repair.Job) bool {
	dr := &e.drives[d]
	st := dr.st
	rp := e.rep
	src, status := rp.pl.PickSource(j, func(c layout.Replica) bool {
		return st.Available(c.Tape) && e.sh.CopyOK(c)
	})
	switch status {
	case repair.SrcDone, repair.SrcGone:
		rp.pl.Cancel(j)
		return false
	case repair.SrcBusy:
		return false
	}
	vt, ok := e.bgSwitch(d, src.Tape, e.now, &e.res.RepairSeconds)
	latent := ok && e.flt != nil && e.flt.inj.LatentActive(src.Tape, src.Pos, vt)
	var sec float64
	if ok {
		vt, sec, ok = e.bgTransfer(d, src.Pos, vt, &e.res.RepairSeconds)
	}
	switch {
	case !ok:
		// The job stays at its read step.
	case latent:
		// The verification behind the repair read finds a latent error on
		// the chosen source: nothing is buffered, the copy escalates to
		// dead, and the job resumes from the read step with another copy.
		// The failed attempt is a request-less fault record: the job ID
		// would collide with request IDs in the fault ledger, and the
		// discovery itself is recorded by the latent-found that follows.
		e.push(Event{Kind: EventFault, Time: vt, Tape: src.Tape, Pos: src.Pos, Seconds: sec})
		e.noteLatentFound(src.Tape, src.Pos, vt, false)
	default:
		rp.pl.FinishRead(j)
		e.push(Event{Kind: EventRepairRead, Time: vt, Tape: src.Tape, Pos: src.Pos,
			Seconds: sec, Request: j.ID})
		j.Busy = true
		dr.job, dr.commit = j, false
	}
	e.beginOp(d, vt, false)
	return true
}

// issueRepairWrite runs job j's write step on drive d: reserve the
// destination (most spare capacity), mount it if needed, and write the
// new copy. The copy is minted only at settle (commitRepair), so other
// drives never see it before the write lands; a destination that dies
// first -- at load, under the locate, or before settle -- aborts the
// commit and the job keeps its completed read.
func (e *engine) issueRepairWrite(d int, j *repair.Job) bool {
	dr := &e.drives[d]
	st := dr.st
	rp := e.rep
	if rp.pl.EvacMoot(j) {
		// The copy this evacuation was to vacate died on its own; plain
		// repair (the rotating scan) owns the block now.
		rp.pl.Cancel(j)
		return false
	}
	if j.Kind == repair.KindRepair && rp.pl.LiveCopies(j.Block) >= j.Want {
		rp.pl.Cancel(j)
		return false
	}
	dst, ok := rp.pl.ChooseDest(j, st.Available)
	if !ok {
		if !rp.pl.Feasible(j) {
			// No up tape can take the copy at all (not just a busy-tape
			// stall): drop the job; the rotating scan re-enqueues the
			// block if reclamation frees capacity.
			rp.pl.Cancel(j)
		}
		return false
	}
	vt, ok := e.bgSwitch(d, dst.Tape, e.now, &e.res.RepairSeconds)
	var sec float64
	if ok {
		vt, sec, ok = e.bgTransfer(d, dst.Pos, vt, &e.res.RepairSeconds)
	}
	if ok {
		e.push(Event{Kind: EventRepairWrite, Time: vt, Tape: dst.Tape, Pos: dst.Pos,
			Seconds: sec, Request: j.ID})
		j.Busy = true
		dr.job, dr.commit = j, true
	} else {
		rp.pl.Abort(j)
	}
	e.beginOp(d, vt, false)
	return true
}

// commitRepair mints job j's new copy at settle time. If the destination
// tape died between issue and settle nothing is minted: the reservation
// is released and the job stays at its write step (monotone -- the read
// is never repeated, the copy is added exactly once or not at all). An
// evacuation job additionally drops the suspect-tape copy it replaced,
// strictly after the mint, so the block's availability never dips.
func (e *engine) commitRepair(j *repair.Job) {
	rp := e.rep
	if !e.sh.Up(j.Dst.Tape) {
		rp.pl.Abort(j)
		return
	}
	c, err := rp.pl.Commit(j, e.now)
	if err != nil {
		rp.pl.Abort(j)
		return
	}
	e.notifyCopyAdded(j.Block, c)
	if j.Kind == repair.KindEvacuate {
		if h := e.hlt; h != nil && !e.evacRemove(j.Block, j.From) {
			h.pendingRemove = append(h.pendingRemove, pendingEvac{j.Block, j.From})
		}
		return
	}
	e.res.RepairedCopies++
	rp.mttr.Add(e.now - j.At)
}

// reclaimCopy removes a cold excess copy nominated by the planner scan.
// Copies any in-flight or scheduled request still targets are vetoed;
// reclamation is metadata-only (the copy simply leaves the tables), so it
// consumes no drive time.
func (e *engine) reclaimCopy(b layout.BlockID, c layout.Replica) bool {
	if e.blockInUse(b) {
		return false
	}
	if err := e.sh.Layout.RemoveCopy(b, c.Tape); err != nil {
		return false
	}
	e.push(Event{Kind: EventReclaim, Time: e.now, Tape: c.Tape, Pos: c.Pos})
	e.notifyCopyRemoved(b, c)
	return true
}

// blockInUse reports whether any drive holds a request for block b in an
// active sweep, in flight, or in its fault limbo.
func (e *engine) blockInUse(b layout.BlockID) bool {
	for i := range e.drives {
		dr := &e.drives[i]
		if dr.inFlight != nil && dr.inFlight.Block == b {
			return true
		}
		for _, r := range dr.limbo {
			if r.Block == b {
				return true
			}
		}
		if dr.st.Active != nil {
			for _, r := range dr.st.Active.Requests() {
				if r.Block == b {
					return true
				}
			}
		}
	}
	return false
}

// notifyCopyAdded tells every scheduler that implements sched.CopyObserver
// about a minted copy, so incremental state (the envelope) can take it up
// without waiting for the next major reschedule.
func (e *engine) notifyCopyAdded(b layout.BlockID, c layout.Replica) {
	for i := range e.drives {
		dr := &e.drives[i]
		if co, ok := dr.schd.(sched.CopyObserver); ok {
			co.OnCopyAdded(dr.st, b, c)
		}
	}
}

// notifyCopyRemoved mirrors notifyCopyAdded for reclaimed copies.
func (e *engine) notifyCopyRemoved(b layout.BlockID, c layout.Replica) {
	for i := range e.drives {
		dr := &e.drives[i]
		if co, ok := dr.schd.(sched.CopyObserver); ok {
			co.OnCopyRemoved(dr.st, b, c)
		}
	}
}
