package sim

import (
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
)

// faultState is the engine-side bookkeeping of the fault model: the stream
// injector, the shared down-tape mask, and what the derived fault metrics
// need beyond the engine's Result. nil when the fault model is disabled,
// which keeps the fault-free hot path to a handful of nil checks.
type faultState struct {
	inj       *faults.Injector
	down      []bool // shared with Shared.Down: tapes discovered failed
	upTapes   int    // tapes not yet discovered failed: len(down) minus set bits
	maskDirty bool   // a copy or tape was lost since the last pending scan

	recovery stats.Accumulator

	// latentDet records when each latent error was first detected (packed
	// (tape,pos) -> detection time), by whichever path touched it first:
	// a failing user read, a scrub pass, or a repair read's verification.
	latentDet map[int64]float64
}

// packCopyKey packs a physical position into the latent-detection map key.
func packCopyKey(tape, pos int) int64 { return int64(tape)<<32 | int64(uint32(pos)) }

// anyTapeUp reports whether at least one tape has not failed. The counter
// is maintained by markTapeDown, keeping this O(1) on the delivery path
// instead of an O(tapes) scan per call.
func (f *faultState) anyTapeUp() bool {
	return f.upTapes > 0
}

// initFaults wires the fault injector into the engine when any fault class
// is enabled. capBlocks is the per-tape data capacity in blocks.
func (e *engine) initFaults(capBlocks int) error {
	fc := e.cfg.Faults
	if !fc.Enabled() {
		return nil
	}
	if fc.Seed == 0 {
		fc.Seed = e.cfg.Seed + 3
	}
	drives := e.cfg.Drives
	if drives < 1 {
		drives = 1
	}
	inj, err := faults.New(fc, e.cfg.Tapes, drives, capBlocks)
	if err != nil {
		return err
	}
	e.flt = &faultState{
		inj:     inj,
		down:    make([]bool, e.cfg.Tapes),
		upTapes: e.cfg.Tapes,
		// Injected bad ranges may leave initially seeded requests with no
		// readable copy; the first pending scan must abandon those.
		maskDirty: inj.InjectedBadBlocks() > 0,
	}
	e.sh.Down = e.flt.down
	e.sh.DeadCopy = inj.Dead()
	e.res.LatentErrorsInjected = inj.InjectedLatentErrors()
	return nil
}

// noteLatentFound handles the first detection of a latent error at
// (tape, pos): the copy escalates to dead exactly like a retry-exhausted
// transient, the detection time and latency are recorded, and the repair
// planner is notified so a replacement copy gets minted. byScrub credits
// the background patrol (versus a user read or repair read finding it).
func (e *engine) noteLatentFound(tape, pos int, at float64, byScrub bool) {
	f := e.flt
	key := packCopyKey(tape, pos)
	if _, dup := f.latentDet[key]; dup {
		return
	}
	if f.latentDet == nil {
		f.latentDet = make(map[int64]float64)
	}
	f.latentDet[key] = at
	f.inj.MarkDead(tape, pos)
	f.maskDirty = true
	if e.rep != nil {
		e.rep.pl.NoteCopyDead(tape, pos, at)
	}
	onset, _ := f.inj.LatentOnset(tape, pos)
	e.push(Event{Kind: EventLatentFound, Time: at, Tape: tape, Pos: pos, Seconds: at - onset})
	if h := e.hlt; h != nil {
		if byScrub {
			e.res.LatentFoundByScrub++
		}
		h.sc.NoteTapeError(tape, at)
		e.updateSuspect(tape, at)
	}
}

// dropUnserviceable scans the pending list after the copy-availability mask
// changed and abandons every request with no readable copy left, so
// schedulers never see a request they cannot place. Closed-model processes
// whose request was abandoned issue a fresh one after the pass,
// availability permitting.
func (e *engine) dropUnserviceable() {
	if !e.flt.maskDirty {
		return
	}
	e.flt.maskDirty = false
	respawns := 0
	kept := e.sh.Pending[:0]
	for _, r := range e.sh.Pending {
		if e.sh.Serviceable(r.Block) {
			kept = append(kept, r)
		} else if e.leave(r, EventUnserviceable) {
			respawns++
		}
	}
	for i := len(kept); i < len(e.sh.Pending); i++ {
		e.sh.Pending[i] = nil
	}
	e.sh.Pending = kept
	for ; respawns > 0; respawns-- {
		e.deliver(e.newRequest(e.now))
	}
}

// markTapeDown masks a tape discovered permanently failed.
func (e *engine) markTapeDown(tape int) {
	if e.flt.down[tape] {
		return
	}
	e.flt.down[tape] = true
	e.flt.upTapes--
	e.flt.maskDirty = true
	e.push(Event{Kind: EventTapeFail, Time: e.now, Tape: tape, Pos: -1})
	if e.rep != nil {
		e.rep.pl.NoteTapeFail(tape, e.now)
	}
}

// requeueFaulted returns a request whose chosen copy was lost to the
// pending list, preserving (Arrival, ID) order so schedulers keep seeing an
// arrival-ordered list. If every copy is gone, the next dropUnserviceable
// scan abandons the request; it is never retried forever.
func (e *engine) requeueFaulted(r *sched.Request) {
	if r.Place == sched.Gone {
		// r left the system while its fault was in limbo; leave counted it
		// then and left the recycling to this settle.
		e.freeRequest(r)
		return
	}
	r.Place = sched.Queued
	if r.FaultedAt == 0 {
		r.FaultedAt = e.now
	}
	r.Target = layout.Replica{}
	e.insertPending(r)
}

// toLimbo parks r on drive d's limbo list: the drive lost r's read to a
// fault, and r returns to the pending list only when the drive settles at
// the discovery time.
func (e *engine) toLimbo(d int, r *sched.Request) {
	r.Place = sched.Limbo
	e.drives[d].limbo = append(e.drives[d].limbo, r)
}

// abortSweep moves drive d's remaining sweep (and the failing request r,
// first) into its limbo: the scheduler state forgets the sweep immediately,
// but the pending list sees the requests only when the drive settles at the
// discovery time.
func (e *engine) abortSweep(d int, r *sched.Request) {
	if r != nil {
		e.toLimbo(d, r)
	}
	if st := e.drives[d].st; st.Active != nil {
		for !st.Active.Empty() {
			e.toLimbo(d, st.Active.Pop())
		}
		e.sh.ReleaseSweep(st.Active)
		st.Active = nil
	}
}

// faultResult derives the fault model's ratios: availability, mean
// recovery, and mean time to detect.
func (e *engine) faultResult() {
	res := e.res
	res.Availability = 1
	f := e.flt
	if f == nil {
		return
	}
	res.MeanRecoverySec = f.recovery.Mean()
	if unserv := e.tally.Post[EventUnserviceable]; res.Completed+unserv > 0 {
		res.Availability = float64(res.Completed) / float64(res.Completed+unserv)
	}
	// Mean time to detect, over every latent error that developed within
	// the run: detection latency when found, censored at run end when not.
	// Censoring makes the metric comparable across detection regimes -- a
	// run that never finds an error does not get to pretend the error has
	// no latency.
	var sum float64
	n := 0
	for _, l := range f.inj.Latents() {
		if l.Onset >= e.now {
			continue
		}
		if det, ok := f.latentDet[packCopyKey(l.Tape, l.Pos)]; ok {
			sum += det - l.Onset
		} else {
			sum += e.now - l.Onset
		}
		n++
	}
	if n > 0 {
		res.MeanTimeToDetectSec = sum / float64(n)
	}
}
