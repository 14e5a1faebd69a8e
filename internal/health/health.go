// Package health implements proactive media-health mechanisms for the
// jukebox: an exponentially-decayed error scorer that grades tapes and
// drives from the error observations the simulator feeds it, and a
// rotating scrub cursor that patrols tape regions during drive idle time.
//
// The paper treats replication as a performance lever and PR7's repair
// subsystem made lost copies recoverable; both are reactive. This package
// supplies the predictive half: latent errors are found by background
// patrol reads before a user request pays for the discovery, error-prone
// media is marked suspect (and evacuated by the repair machinery), and an
// error-prone drive is fenced for maintenance. Everything here is pure
// bookkeeping over observations the engine already makes -- the package
// draws no randomness of its own, which is what keeps the fault streams
// bit-identical whether or not scrubbing runs.
package health

import "math"

// ewma is one lazily decayed exponential moving score: Add bumps it by 1,
// and the value halves every halfLife seconds of inactivity. The decay is
// applied on access (like the repair heat tracker), so idle entries cost
// nothing.
type ewma struct {
	v     float64
	stamp float64
}

func (w *ewma) at(now, halfLife float64) float64 {
	if w.v == 0 {
		return 0
	}
	if dt := now - w.stamp; dt > 0 && halfLife > 0 {
		return w.v * math.Exp2(-dt/halfLife)
	}
	return w.v
}

func (w *ewma) add(now, halfLife float64) {
	w.v = w.at(now, halfLife) + 1
	w.stamp = now
}

// Scorer grades tapes and drives from error observations. A tape's score
// is its decayed error count plus a wear hazard (wearWeight per mount): a
// tape that errors often, or that has been mounted far more than its
// peers, is the one most likely to fail next, so it is the one to evacuate
// first. A drive's score is its decayed error count alone.
type Scorer struct {
	halfLife   float64
	wearWeight float64

	tapes  []ewma
	drives []ewma
	mounts []int64
}

// NewScorer builds a scorer for the given geometry. halfLife is the
// error-score decay half-life in simulated seconds (non-positive disables
// decay); wearWeight is the hazard each tape mount adds to that tape's
// score (zero disables the wear term).
func NewScorer(tapes, drives int, halfLife, wearWeight float64) *Scorer {
	return &Scorer{
		halfLife:   halfLife,
		wearWeight: wearWeight,
		tapes:      make([]ewma, tapes),
		drives:     make([]ewma, drives),
		mounts:     make([]int64, tapes),
	}
}

// NoteTapeError records one error observation against a tape: a transient
// read fault, a failed load attempt, or a permanent media discovery.
func (s *Scorer) NoteTapeError(tape int, now float64) {
	s.tapes[tape].add(now, s.halfLife)
}

// NoteDriveError records one error observation against a drive.
func (s *Scorer) NoteDriveError(drive int, now float64) {
	s.drives[drive].add(now, s.halfLife)
}

// NoteMount records one mount of the tape (the wear signal).
func (s *Scorer) NoteMount(tape int) { s.mounts[tape]++ }

// TapeScore returns the tape's current health score: decayed errors plus
// the wear hazard. Higher is worse.
func (s *Scorer) TapeScore(tape int, now float64) float64 {
	return s.tapes[tape].at(now, s.halfLife) + s.wearWeight*float64(s.mounts[tape])
}

// DriveScore returns the drive's current decayed error score.
func (s *Scorer) DriveScore(drive int, now float64) float64 {
	return s.drives[drive].at(now, s.halfLife)
}

// ResetDrive clears a drive's error history (post-maintenance: the fence
// would otherwise re-trip immediately on the stale score).
func (s *Scorer) ResetDrive(drive int) { s.drives[drive] = ewma{} }

// Scrubber is the rotating patrol cursor: it hands out consecutive
// fixed-size regions of (tape, position) space, wrapping tape by tape, so
// every position is eventually verified. The scrubber holds no notion of
// time or liveness; the caller skips tapes it must not touch and performs
// the actual reads, so an interrupted patrol simply resumes at the cursor.
type Scrubber struct {
	tapes, capBlocks, region int
	tape, pos                int
}

// NewScrubber builds a patrol cursor over `tapes` tapes of capBlocks
// positions, verifying `region` consecutive positions per step.
func NewScrubber(tapes, capBlocks, region int) *Scrubber {
	if region < 1 {
		region = 1
	}
	return &Scrubber{tapes: tapes, capBlocks: capBlocks, region: region}
}

// Next returns the next region to patrol -- tape, first position, and
// length -- and advances the cursor past it. Tapes for which skip returns
// true (failed media, tapes claimed by another drive) are passed over from
// the start of their region space; ok is false when every tape is
// currently skipped.
func (s *Scrubber) Next(skip func(tape int) bool) (tape, start, n int, ok bool) {
	for tries := 0; tries < s.tapes; tries++ {
		if skip != nil && skip(s.tape) {
			s.tape = (s.tape + 1) % s.tapes
			s.pos = 0
			continue
		}
		tape, start = s.tape, s.pos
		n = s.region
		if start+n > s.capBlocks {
			n = s.capBlocks - start
		}
		s.pos += n
		if s.pos >= s.capBlocks {
			s.tape = (s.tape + 1) % s.tapes
			s.pos = 0
		}
		return tape, start, n, true
	}
	return 0, 0, 0, false
}
