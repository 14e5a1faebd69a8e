package sim

import (
	"errors"

	"tapejuke/internal/health"
	"tapejuke/internal/layout"
)

// HealthConfig enables the proactive media-health extension: a background
// scrub scanner that patrols tape regions during drive idle time (finding
// latent errors before a user read pays for the discovery), EWMA health
// scoring of tapes and drives over the fault model's error observations,
// preemptive evacuation of suspect tapes through the repair machinery, and
// fencing of error-prone drives for simulated maintenance. Zero value:
// disabled.
type HealthConfig struct {
	// Enable turns the health subsystem on.
	Enable bool
	// ScrubRate is the number of block positions one idle scrub operation
	// patrols. 0 disables scrubbing (scoring, evacuation, and fencing can
	// run without it). A real request arriving preempts the patrol at the
	// next issue; the cursor resumes where it stopped.
	ScrubRate int
	// ErrHalfLifeSec is the error score's exponential-decay half-life in
	// simulated seconds. 0 means the 100,000 s default.
	ErrHalfLifeSec float64
	// WearWeight is the age/wear hazard each tape mount adds to that
	// tape's health score. 0 disables the wear term.
	WearWeight float64
	// SuspectScore, when positive, marks a tape suspect once its health
	// score (decayed errors + wear) reaches it. Suspect tapes stop
	// receiving new copies; with Evacuate they are drained entirely.
	SuspectScore float64
	// Evacuate migrates every copy off a suspect tape using the repair
	// job machinery (mint a replacement elsewhere first, then drop the
	// suspect copy). Requires Repair.Enable.
	Evacuate bool
	// DriveFenceScore, when positive, fences a drive out of scheduling
	// once its error score reaches it; the drive returns after
	// MaintenanceSec with a cleared score.
	DriveFenceScore float64
	// MaintenanceSec is the fenced drive's maintenance downtime. 0 means
	// the 3600 s default.
	MaintenanceSec float64
}

// Enabled reports whether the health extension is active.
func (h HealthConfig) Enabled() bool { return h.Enable }

// validateHealth checks the health extension's configuration.
func (c *Config) validateHealth() error {
	h := c.Health
	if !h.Enabled() {
		return nil
	}
	if c.WriteMeanInterarrival > 0 {
		return errors.New("sim: the health model does not cover the write extension")
	}
	if h.ScrubRate < 0 {
		return &ConfigError{"Health.ScrubRate", "must be >= 0 (0 disables scrubbing)"}
	}
	if h.ErrHalfLifeSec < 0 {
		return &ConfigError{"Health.ErrHalfLifeSec", "must be >= 0"}
	}
	if h.WearWeight < 0 {
		return &ConfigError{"Health.WearWeight", "must be >= 0"}
	}
	if h.SuspectScore < 0 {
		return &ConfigError{"Health.SuspectScore", "must be >= 0"}
	}
	if h.DriveFenceScore < 0 {
		return &ConfigError{"Health.DriveFenceScore", "must be >= 0"}
	}
	if h.MaintenanceSec < 0 {
		return &ConfigError{"Health.MaintenanceSec", "must be >= 0"}
	}
	if h.Evacuate && !c.Repair.Enabled() {
		return &ConfigError{"Health.Evacuate", "evacuation uses the repair machinery (enable Repair)"}
	}
	if h.Evacuate && h.SuspectScore == 0 {
		return &ConfigError{"Health.Evacuate", "evacuation needs a positive SuspectScore to nominate tapes"}
	}
	return nil
}

// pendingEvac is one evacuation-copy removal vetoed at commit time (the
// block was in use); it is retried at the next idle repair visit.
type pendingEvac struct {
	block layout.BlockID
	from  layout.Replica
}

// healthState is the engine-side bookkeeping of the health extension; its
// metrics are charged straight into the engine's Result. nil when health
// is disabled, keeping the default path to a handful of nil checks.
//
// Like repair, health consumes no injector randomness: the scrub pass
// checks tape liveness by time comparison and bad/latent positions by
// table lookup, and scoring is pure arithmetic over error observations
// the fault paths already make. Enabling it leaves the fault stream --
// and with it every injector draw -- bit-identical.
type healthState struct {
	sc  *health.Scorer
	scr *health.Scrubber // nil when ScrubRate is 0

	suspect        []bool // tapes whose score crossed SuspectScore
	evacuated      []bool // suspect tapes fully drained of copies
	pendingRemove  []pendingEvac
	scratch        []int // scrub-region occupied positions, reused
	scrubbedBlocks int64 // ScrubbedMB, in blocks until the run ends
}

// initHealth wires the health subsystem when enabled, writing its
// defaults into the engine's configuration. Must run after initRepair
// (evacuation and the destination filter hang off the planner).
func (e *engine) initHealth() {
	hc := &e.cfg.Health
	if !hc.Enabled() {
		return
	}
	if hc.ErrHalfLifeSec == 0 {
		hc.ErrHalfLifeSec = 100_000
	}
	if hc.MaintenanceSec == 0 {
		hc.MaintenanceSec = 3600
	}
	h := &healthState{
		sc:        health.NewScorer(e.cfg.Tapes, len(e.drives), hc.ErrHalfLifeSec, hc.WearWeight),
		suspect:   make([]bool, e.cfg.Tapes),
		evacuated: make([]bool, e.cfg.Tapes),
	}
	if hc.ScrubRate > 0 {
		h.scr = health.NewScrubber(e.cfg.Tapes, e.sh.Layout.TapeCap(), hc.ScrubRate)
	}
	e.hlt = h
	if e.rep != nil && hc.SuspectScore > 0 {
		// New copies -- repair and evacuation alike -- never land on a
		// suspect tape: placing data on media queued for evacuation would
		// be wasted motion.
		e.rep.pl.SetDestFilter(func(t int) bool { return !h.suspect[t] })
	}
}

// noteMount records tape wear on every mount attempt (the robot handled
// the cartridge whether or not the load succeeded).
func (e *engine) noteMount(tape int) {
	h := e.hlt
	if h == nil {
		return
	}
	h.sc.NoteMount(tape)
	e.updateSuspect(tape, e.now)
}

// noteFaultErr records one error observation from the fault paths against
// the tape (pass -1 for drive-only errors like drive failures) and the
// drive. Pure bookkeeping: the fault outcome itself was already resolved.
func (e *engine) noteFaultErr(d, tape int, at float64) {
	h := e.hlt
	if h == nil {
		return
	}
	if tape >= 0 {
		h.sc.NoteTapeError(tape, at)
		e.updateSuspect(tape, at)
	}
	if d >= 0 {
		h.sc.NoteDriveError(d, at)
	}
}

// updateSuspect promotes the tape to suspect when its score crosses the
// threshold. Suspicion is sticky: scores decay, the judgement does not
// (the media already demonstrated its error rate).
func (e *engine) updateSuspect(tape int, at float64) {
	h, limit := e.hlt, e.cfg.Health.SuspectScore
	if limit <= 0 || h.suspect[tape] {
		return
	}
	if h.sc.TapeScore(tape, at) >= limit {
		h.suspect[tape] = true
		e.res.SuspectTapes++
	}
}

// healthFenceOp fences drive d for maintenance when its error score has
// crossed the threshold. Fencing happens between sweeps only (the drive
// finishes committed work first): the mounted tape is ejected, the drive
// leaves scheduling via the shared Fenced mask, and it returns after
// MaintenanceSec with a cleared error score. The maintenance is drive
// downtime, charged like a drive repair. Returns whether the
// maintenance operation was issued.
func (e *engine) healthFenceOp(d int) bool {
	hc := &e.cfg.Health
	if hc.DriveFenceScore <= 0 {
		return false
	}
	if e.sh.Fenced != nil && e.sh.Fenced[d] {
		return false
	}
	if e.hlt.sc.DriveScore(d, e.now) < hc.DriveFenceScore {
		return false
	}
	dr := &e.drives[d]
	st := dr.st
	if e.sh.Fenced == nil {
		e.sh.Fenced = make([]bool, len(e.drives))
	}
	e.sh.Fenced[d] = true
	if st.Mounted >= 0 {
		// Maintenance happens on an empty drive; the cartridge goes back
		// to the library so other drives may use it.
		if e.sh.Busy != nil {
			e.sh.Busy[st.Mounted] = false
		}
		st.Mounted, st.Head = -1, 0
	}
	m := hc.MaintenanceSec
	e.res.DriveRepairSeconds += m
	dr.unfence = true
	e.push(Event{Kind: EventDriveFence, Time: e.now + m, Tape: -1, Pos: -1, Seconds: m})
	e.beginOp(d, e.now+m, false)
	return true
}

// idleScrubOp patrols the next scrub region on drive d when neither flush
// nor repair wants the idle slack: mount the region's tape if needed and
// verify every live copy in it, one region per operation so an arriving
// request preempts the patrol at the next issue. Empty regions cost
// nothing and are skipped (up to about one tape's worth per visit) so the
// cursor keeps moving over sparse layouts. Returns whether an operation
// was issued.
func (e *engine) idleScrubOp(d int) bool {
	h := e.hlt
	if h == nil || h.scr == nil {
		return false
	}
	dr := &e.drives[d]
	st := dr.st
	lay := e.sh.Layout
	maxTries := lay.TapeCap()/e.cfg.Health.ScrubRate + 2
	for try := 0; try < maxTries; try++ {
		tape, start, n, ok := h.scr.Next(func(t int) bool {
			return !st.Available(t) || h.evacuated[t]
		})
		if !ok {
			return false
		}
		poss := h.scratch[:0]
		for p := start; p < start+n; p++ {
			if _, occupied := lay.BlockAt(tape, p); !occupied {
				continue
			}
			if e.flt != nil && e.flt.inj.CopyDead(tape, p) {
				// Already known dead (a pre-placed bad block or an earlier
				// escalation): nothing to verify, but make sure the repair
				// planner has seen the loss (idempotent).
				if e.rep != nil {
					e.rep.pl.NoteCopyDead(tape, p, e.now)
				}
				continue
			}
			poss = append(poss, p)
		}
		h.scratch = poss
		if len(poss) == 0 {
			continue
		}
		e.issueScrub(d, tape, poss)
		return true
	}
	return false
}

// issueScrub runs one scrub operation over the occupied positions of a
// region: a verification read of each live copy, in position order. Scrub
// reads, like repair reads, are deterministic verification passes -- they
// draw no injector randomness; a latent error is found by table lookup
// and a tape already dead is discovered by time comparison, ending the
// pass -- so the fault stream is unchanged.
func (e *engine) issueScrub(d, tape int, poss []int) {
	vt, ok := e.bgSwitch(d, tape, e.now, &e.res.ScrubSeconds)
	for i := 0; ok && i < len(poss); i++ {
		pos := poss[i]
		var sec float64
		if vt, sec, ok = e.bgTransfer(d, pos, vt, &e.res.ScrubSeconds); !ok {
			break
		}
		e.hlt.scrubbedBlocks++
		e.push(Event{Kind: EventScrubRead, Time: vt, Tape: tape, Pos: pos, Seconds: sec})
		if e.flt != nil && e.flt.inj.LatentActive(tape, pos, vt) {
			e.noteLatentFound(tape, pos, vt, true)
		}
	}
	e.beginOp(d, vt, false)
}

// healthEvacScan drives evacuation at idle repair visits: vetoed copy
// removals are retried, every copy still on a suspect tape gets an
// evacuation job (bounded per visit; the planner dedups by block), and
// fully drained tapes are marked evacuated.
func (e *engine) healthEvacScan() {
	h := e.hlt
	if h == nil || !e.cfg.Health.Evacuate || e.rep == nil {
		return
	}
	if len(h.pendingRemove) > 0 {
		kept := h.pendingRemove[:0]
		for _, pr := range h.pendingRemove {
			if !e.evacRemove(pr.block, pr.from) {
				kept = append(kept, pr)
			}
		}
		for i := len(kept); i < len(h.pendingRemove); i++ {
			h.pendingRemove[i] = pendingEvac{}
		}
		h.pendingRemove = kept
	}
	if e.res.SuspectTapes == 0 {
		return
	}
	pl := e.rep.pl
	budget := 64
	for t := 0; t < len(h.suspect); t++ {
		if !h.suspect[t] || h.evacuated[t] || !e.sh.Up(t) {
			continue
		}
		live := 0
		for _, s := range e.sh.Layout.TapeContents(t) {
			if live > 0 && budget > 0 && pl.Covered(s.Block) {
				// Covered copies cannot enqueue, and once a live copy was
				// seen and with budget left their liveness changes neither
				// the budget return nor the drain test: skip the check.
				continue
			}
			from := layout.Replica{Tape: t, Pos: s.Pos}
			if !e.sh.CopyOK(from) {
				continue // dead copy: plain repair owns the block already
			}
			live++
			if budget == 0 {
				return
			}
			if pl.EnqueueEvacuation(s.Block, from, e.now) != nil {
				e.res.EvacuationJobs++
				budget--
			}
		}
		// Drained: only dead copies (and no vetoed removals) remain, so the
		// tape holds nothing worth patrolling or mounting again.
		if live == 0 && !e.pendingRemoveOn(t) {
			h.evacuated[t] = true
			e.res.EvacuatedTapes++
		}
	}
}

// pendingRemoveOn reports whether a vetoed removal still points at the tape.
func (e *engine) pendingRemoveOn(tape int) bool {
	for _, pr := range e.hlt.pendingRemove {
		if pr.from.Tape == tape {
			return true
		}
	}
	return false
}

// evacRemove drops the suspect-tape copy an evacuation job replaced. The
// removal is metadata-only and happens strictly after the replacement
// copy committed, so the block never loses availability; copies a request
// still targets are vetoed (the caller retries). Returns whether the
// removal is settled (done, or moot because the copy is already gone).
func (e *engine) evacRemove(b layout.BlockID, from layout.Replica) bool {
	if !e.sh.CopyOK(from) {
		return true // the copy died on its own: plain repair owns it now
	}
	if c, ok := e.sh.Layout.ReplicaOn(b, from.Tape); !ok || c.Pos != from.Pos {
		return true // already removed (reclaim got there first)
	}
	if e.blockInUse(b) {
		return false
	}
	if err := e.sh.Layout.RemoveCopy(b, from.Tape); err != nil {
		return false
	}
	e.push(Event{Kind: EventEvacuate, Time: e.now, Tape: from.Tape, Pos: from.Pos})
	e.notifyCopyRemoved(b, from)
	return true
}
