package sim

import (
	"fmt"
	"math"

	"tapejuke/internal/repair"
	"tapejuke/internal/sched"
)

// This file is the event-calendar kernel shared by every drive count. Each
// drive is a record with a wake time: the kernel repeatedly advances the
// clock to the earliest busy drive's completion, settles that operation's
// deferred effects, delivers due arrivals, and issues new operations on
// every free drive. A single-drive jukebox is the one-record case of the
// same loop, replacing the synchronous engine and the separate multi-drive
// engine that preceded it.
//
// Operations resolve their random outcome at issue time -- all injector and
// workload draws happen in deterministic order -- accumulating a virtual
// clock over attempt segments; only the completion time is placed on the
// calendar. State effects that other drives must not see early (tape masks,
// requeues, completions) are deferred to the settle at the discovery time.

// drive is one tape drive: its scheduling view (sharing the jukebox-wide
// Shared state), its scheduler instance, and the operation in flight.
type drive struct {
	st   *sched.State
	schd sched.Scheduler

	busy   bool    // an operation is in flight, finishing at freeAt
	freeAt float64 // completion time of the in-flight operation
	pump   bool    // deliver due arrivals after this settle even past the horizon

	inFlight *sched.Request // request whose read completes at freeAt

	// Fault-model deferrals: the outcome was resolved at issue time but its
	// effects apply when the drive gives up at freeAt, the discovery time.
	limbo    []*sched.Request // requests to requeue at freeAt (toLimbo)
	failTape int              // tape to mask at freeAt, -1 none
	loadFail bool             // failure was a load: unmount and release busy

	// job, when set, is the background repair job whose step is in flight;
	// settle clears its busy claim. commit marks a write step, whose new
	// copy is minted at freeAt: other drives must not see it before the
	// write lands.
	job    *repair.Job
	commit bool

	// unfence, when set, marks the in-flight operation as the drive's
	// maintenance downtime: at freeAt the fence mask clears and the
	// drive's error score resets.
	unfence bool
}

// stepAudit, set by tests, checks the engine's invariants at every kernel
// step; nil in production.
var stepAudit func(*engine) error

// run is the kernel loop. Per wake: deliver work and issue operations on
// free drives, then either settle the earliest completion or, with every
// drive empty-handed, sleep until the next arrival.
func (e *engine) run() (*Result, error) {
	for {
		if stepAudit != nil {
			if err := stepAudit(e); err != nil {
				return nil, err
			}
		}
		if e.now < e.cfg.Horizon {
			e.expireDue()
			e.pumpArrivals()
			if e.cfg.MaxCompletions > 0 && e.tally.Post[EventComplete] >= e.cfg.MaxCompletions {
				e.flushEvents()
				return e.result(), nil
			}
			for i := range e.drives {
				if !e.drives[i].busy {
					if err := e.issue(i); err != nil {
						return nil, err
					}
				}
			}
			e.flushEvents()
		}

		d := e.nextSettle()
		if d < 0 {
			// Nothing in flight anywhere.
			if e.now >= e.cfg.Horizon {
				break
			}
			if len(e.sh.Pending) > 0 && len(e.drives) == 1 {
				return nil, fmt.Errorf("sim: scheduler %s failed to schedule %d pending requests",
					e.drives[0].schd.Name(), len(e.sh.Pending))
			}
			wake := e.nextArr
			if e.writes != nil && e.writes.next < wake {
				wake = e.writes.next
			}
			if e.ovl != nil {
				if te := e.nextDeadline(); te < wake {
					wake = te
				}
			}
			if math.IsInf(wake, 1) {
				break // closed model with nothing left to do
			}
			var dt float64
			if wake >= e.cfg.Horizon {
				dt = e.cfg.Horizon - e.now
			} else {
				dt = wake - e.now
			}
			e.advanceClock(e.now + dt)
			e.push(Event{Kind: EventIdle, Time: e.now, Tape: -1, Pos: -1, Seconds: dt})
			e.flushEvents()
			if e.now >= e.cfg.Horizon {
				break
			}
			continue
		}

		if e.ovl != nil && e.now < e.cfg.Horizon {
			// Deadline expiry is a wake source: when a deadline falls before
			// the earliest completion, advance only to the deadline so the
			// expiry (and any closed-model respawn it triggers) is processed
			// at its own time, keeping the event stream in global order.
			if te := e.nextDeadline(); te <= e.drives[d].freeAt && te < e.cfg.Horizon {
				e.advanceClock(te)
				e.flushEvents()
				continue
			}
		}
		e.advanceClock(e.drives[d].freeAt)
		e.flushEvents()
		pumpAfter := e.settle(d)
		if e.now >= e.cfg.Horizon && pumpAfter {
			// Arrivals that landed during an overshooting read or switch are
			// still delivered (they count as arrivals even though no further
			// operation starts).
			e.pumpArrivals()
		}
		e.flushEvents()
	}
	e.flushEvents()
	return e.result(), nil
}

// advanceClock moves wall-clock time to target, accumulating the
// queue-length integral. Activity buckets are charged at issue time,
// segment by segment; idle time is charged only by the idle branch of the
// kernel loop, when no drive has an operation in flight.
func (e *engine) advanceClock(target float64) {
	if target <= e.now {
		return
	}
	e.queueAreaSec += float64(e.outstanding) * (target - e.now)
	e.now = target
	e.sh.Now = target
}

// nextSettle returns the busy drive with the earliest completion (lowest
// index on ties), or -1 when every drive is free.
func (e *engine) nextSettle() int {
	d := -1
	for i := range e.drives {
		if e.drives[i].busy && (d < 0 || e.drives[i].freeAt < e.drives[d].freeAt) {
			d = i
		}
	}
	return d
}

// beginOp places drive d's just-resolved operation on the calendar.
func (e *engine) beginOp(d int, freeAt float64, pumpAfter bool) {
	dr := &e.drives[d]
	dr.busy = true
	dr.freeAt = freeAt
	dr.pump = pumpAfter
}

// settle applies the deferred effects of drive d's finished operation at
// the discovery time e.now == freeAt: tape masks, sweep requeues, and the
// completion itself. It reports whether due arrivals should be delivered
// even past the horizon (reads and successful switches; see run).
func (e *engine) settle(d int) bool {
	dr := &e.drives[d]
	dr.busy = false
	pumpAfter := dr.pump
	dr.pump = false
	st := dr.st
	if dr.failTape >= 0 {
		e.markTapeDown(dr.failTape)
		if dr.loadFail {
			// The cartridge never mounted: the drive is empty and the tape
			// goes back to the library (released exactly once, here).
			if e.sh.Busy != nil {
				e.sh.Busy[dr.failTape] = false
			}
			st.Mounted, st.Head = -1, 0
			dr.loadFail = false
		}
		dr.failTape = -1
	}
	for i, r := range dr.limbo {
		e.requeueFaulted(r)
		dr.limbo[i] = nil
	}
	dr.limbo = dr.limbo[:0]
	if r := dr.inFlight; r != nil {
		dr.inFlight = nil
		if e.leave(r, EventComplete) {
			e.deliver(e.newRequest(e.now))
		}
	}
	if j := dr.job; j != nil {
		dr.job = nil
		j.Busy = false
		if dr.commit {
			dr.commit = false
			e.commitRepair(j)
		}
	}
	if dr.unfence {
		// Maintenance is over: the drive rejoins scheduling with a clean
		// error history (the fence would otherwise re-trip immediately).
		dr.unfence = false
		e.sh.Fenced[d] = false
		e.hlt.sc.ResetDrive(d)
	}
	return pumpAfter
}

// issue starts drive d's next operation: a due repair, the next read of its
// sweep, a delta-write flush, or a major reschedule with its tape switch.
// The drive stays free when there is nothing it can do.
func (e *engine) issue(d int) error {
	dr := &e.drives[d]
	if e.now >= e.cfg.Horizon {
		return nil
	}
	st := dr.st
	if st.Active != nil {
		if !st.Active.Empty() {
			// Mid-sweep, a due drive failure binds to the next read attempt
			// (startRead inserts the repair before the attempt).
			e.startRead(d)
			return nil
		}
		e.sh.ReleaseSweep(st.Active)
		st.Active = nil
		// The sweep just drained: the write extension may piggyback a flush
		// on the mounted tape before the next major reschedule.
		if e.piggybackOp(d) {
			return nil
		}
	}
	if e.flt != nil {
		// Between sweeps, a due drive failure takes the drive down for
		// repair before any further operation; the pending-hygiene scan
		// waits until the drive is back.
		if e.now >= e.flt.inj.DriveFailAt(d) {
			e.beginOp(d, e.repairDrive(d, e.now), false)
			return nil
		}
		e.dropUnserviceable()
	}
	if e.hlt != nil && e.healthFenceOp(d) {
		// The drive's error score crossed the fence threshold: it leaves
		// scheduling for maintenance before taking any further work.
		return nil
	}
	if len(e.sh.Pending) == 0 {
		// The drive would otherwise go idle: flush buffered writes first,
		// then give the slack to background repair, then to the scrub
		// patrol. Each runs one step per operation, so a real request
		// arriving preempts the background work at the next issue with
		// its progress intact.
		if !e.idleFlushOp(d) && !e.idleRepairOp(d) {
			e.idleScrubOp(d)
		}
		return nil
	}
	tape, sweep, ok := dr.schd.Reschedule(st)
	if ok && e.cfg.Degrade.MaxSweep > 0 && e.overloaded() {
		sweep = e.truncateSweep(st, tape, sweep)
	}
	if !ok {
		// Every candidate tape is claimed by another drive (or FIFO's oldest
		// request is pinned to one); retry at the next wake. The one-drive
		// case cannot unblock itself: the idle branch reports it.
		return nil
	}
	if e.cfg.RAO {
		// Serpentine drives execute the sweep in Recommended Access Order:
		// greedy nearest-first physical order from the head the schedule
		// starts at (0 after a switch). Scheduling costs were evaluated on
		// the elevator order; the reorder is a drive-level service detail.
		sweep.ReorderRAO(e.cfg.Profile, e.cfg.BlockMB, st.StartHead(tape))
	}
	if e.sh.Busy != nil && e.sh.Busy[tape] && tape != st.Mounted {
		return fmt.Errorf("sim: scheduler %s selected busy tape %d", dr.schd.Name(), tape)
	}
	if tape != st.Mounted {
		sw := e.sh.Costs.SwitchCost(st.Mounted, st.Head, tape)
		e.mount(st, tape)
		st.Active = sweep
		e.startSwitch(d, tape, sw)
		return nil
	}
	st.Active = sweep
	e.startRead(d)
	return nil
}

// mount claims tape for drive state st, releasing the tape it held, and
// loads it with the head at the beginning of the tape. Every mount attempt
// counts toward the tape's wear, whether or not the load then succeeds.
func (e *engine) mount(st *sched.State, tape int) {
	if e.sh.Busy != nil {
		if st.Mounted >= 0 {
			e.sh.Busy[st.Mounted] = false
		}
		e.sh.Busy[tape] = true
	}
	st.Mounted, st.Head = tape, 0
	e.noteMount(tape)
}

// startSwitch issues drive d's scheduled switch to the just-mounted tape,
// which costs sw. Under the fault model, load attempts may fail with the
// configured probability, each consuming the mechanical time, retried up
// to the policy bound; a tape past its failure time is discovered dead at
// load. When the load never succeeds, the drive ends the operation empty
// and the tape is masked at settle.
func (e *engine) startSwitch(d, tape int, sw float64) {
	f := e.flt
	dr := &e.drives[d]
	vt := e.now
	for attempt := 0; ; {
		if f != nil && f.inj.TapeFailed(tape, vt) {
			// The robot fetches the cartridge and the load fails for good:
			// this is how an unmounted tape's death is discovered.
			vt += sw
			e.res.FaultSeconds += sw
			break
		}
		if f == nil || !f.inj.SwitchAttemptFails() {
			vt += sw
			e.push(Event{Kind: EventSwitch, Time: vt, Tape: tape, Pos: -1, Seconds: sw})
			e.beginOp(d, vt, true)
			return
		}
		e.res.SwitchFaults++
		vt += sw
		e.res.FaultSeconds += sw
		e.push(Event{Kind: EventFault, Time: vt, Tape: tape, Pos: -1, Seconds: sw})
		e.noteFaultErr(d, tape, vt)
		attempt++
		if attempt > f.inj.Retry().MaxRetries {
			// The loader cannot mount the cartridge; treat it as damaged.
			break
		}
		e.res.Retries++
	}
	dr.failTape, dr.loadFail = tape, true
	e.abortSweep(d, nil)
	e.beginOp(d, vt, false)
}

// repairDrive takes drive d, failed at the virtual time vt, through its
// repair downtime and returns the time it is back in service.
func (e *engine) repairDrive(d int, vt float64) float64 {
	rep := e.flt.inj.DriveRepair(d, vt)
	e.res.DriveRepairSeconds += rep
	vt += rep
	e.push(Event{Kind: EventDriveRepair, Time: vt, Tape: -1, Pos: -1, Seconds: rep})
	e.noteFaultErr(d, -1, vt)
	return vt
}

// startRead pops the drive's next sweep request and issues its retrieval,
// resolving the completion time now. Under the fault model that resolves
// the whole fault story: transient errors retry with simulated-time
// backoff over the virtual clock vt and escalate the copy to dead on
// exhaustion; a tape past its failure time aborts the whole sweep; a due
// drive failure inserts its repair before the attempt. Only the completion
// time goes on the calendar -- requeues and tape masks apply at settle,
// the discovery time.
func (e *engine) startRead(d int) {
	f := e.flt
	dr := &e.drives[d]
	st := dr.st
	r := st.Active.Pop()
	if e.ovl != nil && e.now > e.warmupEnd {
		e.noteQueueAge(e.now - r.Arrival)
	}
	tape, pos := r.Target.Tape, r.Target.Pos
	vt := e.now
	for attempt := 0; ; {
		if f != nil && vt >= f.inj.DriveFailAt(d) {
			vt = e.repairDrive(d, vt)
		}
		loc, rd, newHead := e.sh.Costs.ServeOneParts(st.Head, pos)
		if f != nil && f.inj.TapeFailed(tape, vt) {
			// The medium died mid-schedule: the locate runs into the failure
			// and the rest of the sweep is rerouted to surviving replicas.
			vt += loc
			e.res.FaultSeconds += loc
			e.res.PermanentFaults++
			dr.failTape = tape
			e.abortSweep(d, r)
			e.beginOp(d, vt, true)
			return
		}
		if f != nil {
			// A copy already dead is possible when an earlier request in this
			// sweep escalated the same position (schedulers never target a
			// copy already dead). A latent error that developed here
			// undetected is found by this user read, the first to touch it,
			// by table lookup -- no draw. Either way the read fails
			// permanently and the request reroutes to a surviving replica.
			if dead := f.inj.CopyDead(tape, pos); dead || f.inj.LatentActive(tape, pos, vt) {
				vt += loc + rd
				e.res.FaultSeconds += loc + rd
				st.Head = newHead
				e.res.PermanentFaults++
				e.push(Event{Kind: EventFault, Time: vt, Tape: tape, Pos: pos,
					Seconds: loc + rd, Request: r.ID})
				if !dead {
					e.noteLatentFound(tape, pos, vt, false)
				}
				e.toLimbo(d, r)
				e.beginOp(d, vt, true)
				return
			}
		}
		if f == nil || !f.inj.ReadAttemptFails() {
			vt += loc
			e.res.LocateSeconds += loc
			vt += rd
			e.res.ReadSeconds += rd
			st.Head = newHead
			if vt > e.warmupEnd {
				e.res.ReadsPerTape[tape]++
			}
			e.push(Event{Kind: EventRead, Time: vt, Tape: tape, Pos: pos,
				Seconds: loc + rd, Request: r.ID})
			dr.inFlight, r.Place = r, sched.InFlight
			e.beginOp(d, vt, true)
			return
		}
		// Transient media error: the attempt consumed the drive anyway.
		vt += loc + rd
		e.res.FaultSeconds += loc + rd
		st.Head = newHead
		e.res.TransientFaults++
		e.push(Event{Kind: EventFault, Time: vt, Tape: tape, Pos: pos,
			Seconds: loc + rd, Request: r.ID})
		e.noteFaultErr(d, tape, vt)
		attempt++
		if attempt > f.inj.Retry().MaxRetries {
			f.inj.MarkDead(tape, pos)
			f.maskDirty = true
			e.res.PermanentFaults++
			if e.rep != nil {
				e.rep.pl.NoteCopyDead(tape, pos, e.now)
			}
			e.toLimbo(d, r)
			e.beginOp(d, vt, true)
			return
		}
		e.res.Retries++
		bo := f.inj.Retry().Delay(attempt)
		vt += bo
		e.res.FaultSeconds += bo
	}
}

// bgSwitch mounts tape on drive d for background work -- a delta flush, a
// repair step, or a scrub pass -- at the virtual time vt; a tape already
// mounted costs nothing. A background mount is a real switch: it is
// charged and emits EventSwitch like a scheduled one, so traces replay on
// the deck. A tape already dead at load is discovered as in startSwitch --
// the drive ends the operation empty and the tape is masked at settle --
// but without any injector draw, so the fault stream is unchanged; sink
// receives that failed load's drive time, so each subsystem is charged for
// its own mounts. Returns the post-switch virtual time and whether the
// tape is mounted.
func (e *engine) bgSwitch(d, tape int, vt float64, sink *float64) (float64, bool) {
	dr := &e.drives[d]
	st := dr.st
	if tape == st.Mounted {
		return vt, true
	}
	sw := e.sh.Costs.SwitchCost(st.Mounted, st.Head, tape)
	e.mount(st, tape)
	if e.flt != nil && e.flt.inj.TapeFailed(tape, vt) {
		*sink += sw
		dr.failTape, dr.loadFail = tape, true
		return vt + sw, false
	}
	vt += sw
	e.push(Event{Kind: EventSwitch, Time: vt, Tape: tape, Pos: -1, Seconds: sw})
	return vt, true
}

// bgTransfer moves drive d's head through pos on the mounted tape for
// background work -- a delta write, a repair read or write, or a scrub
// read -- at the virtual time vt: a locate, then one block's transfer,
// charged to sink as one sum. Like bgSwitch it draws no injector
// randomness. A tape past its failure time is discovered by the locate,
// which runs into the failure: nothing is transferred and the tape is
// masked at settle. Returns the advanced virtual time, the seconds
// charged, and whether the block was transferred.
func (e *engine) bgTransfer(d, pos int, vt float64, sink *float64) (float64, float64, bool) {
	dr := &e.drives[d]
	st := dr.st
	loc, xfer, newHead := e.sh.Costs.ServeOneParts(st.Head, pos)
	if e.flt != nil && e.flt.inj.TapeFailed(st.Mounted, vt) {
		*sink += loc
		dr.failTape = st.Mounted
		return vt + loc, loc, false
	}
	sec := loc + xfer
	*sink += sec
	st.Head = newHead
	return vt + sec, sec, true
}

// push tallies an event at issue and, with an observer, queues it.
// Events may be pushed with future timestamps (an operation's interior
// attempts and completion, resolved at issue time); flushEvents releases
// them once the clock catches up, keeping the observed stream in global
// time order across drives. push only appends, which keeps it small enough
// to inline on the kernel's hot path; flushEvents places what it appended.
func (e *engine) push(ev Event) {
	e.tally.Add(ev, ev.Time > e.warmupEnd)
	if e.cfg.Observer != nil {
		e.evq = append(e.evq, ev)
	}
}

// flushEvents sorts the queue by time and delivers its prefix of events
// due by now. The queue is sorted up to the events pushed since the last
// flush; an insertion pass moves each of those left past every queued
// event of later time, so simultaneous events release in push order. Most
// events are pushed in time order and do not move.
func (e *engine) flushEvents() {
	if e.cfg.Observer == nil {
		return
	}
	q := e.evq
	for j := 1; j < len(q); j++ {
		for i := j; i > 0 && q[i-1].Time > q[i].Time; i-- {
			q[i-1], q[i] = q[i], q[i-1]
		}
	}
	n := 0
	for ; n < len(q) && q[n].Time <= e.now; n++ {
		e.cfg.Observer.Observe(q[n])
	}
	if n > 0 {
		e.evq = q[:copy(q, q[n:])]
	}
}
