package sim

import (
	"tapejuke/internal/stats"
	"tapejuke/internal/workload"
)

// The paper's workload is read-only by assumption: "Writes would be
// directed to disk-resident delta files, occasionally written to tape
// during idle time or piggybacked on the read schedule" (Section 4). This
// file implements that write path as an extension so the claim can be
// exercised: delta writes buffer on disk at no cost to the requester and
// drain to per-tape delta logs either when a drive is already on the
// right tape (piggyback) or when the jukebox would otherwise idle. The
// buffers are jukebox-wide; with several drives, whichever drive frees up
// first picks up the flush, claiming the target tape through the shared
// busy vector like any other operation.

// WritePolicy selects when buffered delta writes drain to tape.
type WritePolicy int

const (
	// WritePiggyback appends a tape's buffered deltas to the read schedule
	// whenever a sweep on that tape finishes.
	WritePiggyback WritePolicy = iota
	// WriteIdleOnly flushes only while the drive has nothing to read
	// (open-queuing models; a closed jukebox never idles).
	WriteIdleOnly
	// WritePiggybackAndIdle does both.
	WritePiggybackAndIdle
)

// String names the policy.
func (p WritePolicy) String() string {
	switch p {
	case WritePiggyback:
		return "piggyback"
	case WriteIdleOnly:
		return "idle-only"
	case WritePiggybackAndIdle:
		return "piggyback+idle"
	}
	return "unknown"
}

// writeState tracks the write extension inside the engine; its metrics
// are charged straight into the engine's Result.
type writeState struct {
	arr       *workload.PoissonArrivals
	next      float64
	buffer    [][]float64 // per tape: arrival times of the buffered delta blocks
	buffered  int
	logStart  int   // first block position of each tape's delta region
	logBlocks int   // delta region length in blocks
	logCursor []int // next append slot per tape (wraps; old deltas compact offline)
	delay     stats.Accumulator
}

// initWrites sets up the write extension when configured.
func (e *engine) initWrites(dataCapBlocks int) error {
	cfg := e.cfg
	if cfg.WriteMeanInterarrival <= 0 {
		return nil
	}
	arr, err := workload.NewPoissonArrivals(cfg.WriteMeanInterarrival, cfg.Seed+2)
	if err != nil {
		return err
	}
	w := &writeState{
		arr:       arr,
		buffer:    make([][]float64, cfg.Tapes),
		logStart:  dataCapBlocks,
		logBlocks: int(cfg.WriteReserveMB / cfg.BlockMB),
		logCursor: make([]int, cfg.Tapes),
	}
	w.next = arr.Next()
	e.writes = w
	return nil
}

// pumpWrites buffers every delta write that has arrived by now. Each write
// targets the tape holding the (randomly drawn) base block it updates.
func (e *engine) pumpWrites() {
	w := e.writes
	if w == nil {
		return
	}
	for w.next <= e.now {
		blk := e.gen.Next()
		tape := e.sh.Layout.Replicas(blk)[0].Tape
		w.buffer[tape] = append(w.buffer[tape], w.next)
		w.buffered++
		if w.buffered > e.res.MaxBufferedWrites {
			e.res.MaxBufferedWrites = w.buffered
		}
		w.next = w.arr.Next()
	}
}

// resolveFlush drains drive d's mounted tape's buffered deltas into its
// delta log over the virtual clock vt, one background transfer per block
// from the append cursor on, each emitting its own EventWriteFlush at its
// log position. Write transfer time is modelled with the read-transfer
// segments (helical-scan drives read and write at the same streaming
// rate). The write extension runs without the fault model, so every
// transfer lands. The drained buffer keeps its storage for the tape's next
// deltas. Returns the advanced virtual clock.
func (e *engine) resolveFlush(d int, vt float64) float64 {
	w := e.writes
	tape := e.drives[d].st.Mounted
	batch := w.buffer[tape]
	w.buffer[tape] = batch[:0]
	w.buffered -= len(batch)
	for _, arrival := range batch {
		pos := w.logStart + w.logCursor[tape]
		w.logCursor[tape] = (w.logCursor[tape] + 1) % w.logBlocks
		var sec float64
		vt, sec, _ = e.bgTransfer(d, pos, vt, &e.res.WriteSeconds)
		if vt > e.warmupEnd {
			w.delay.Add(vt - arrival)
		}
		e.push(Event{Kind: EventWriteFlush, Time: vt, Tape: tape, Pos: pos, Seconds: sec})
	}
	return vt
}

// flushFullest issues, at the virtual time vt, one operation on drive d
// that mounts the tape with the largest write buffer among those d may
// claim and drains it. It serves both the idle flush and the piggyback
// path's forced drain. Returns false, issuing nothing, when every buffered
// tape is held by another drive.
func (e *engine) flushFullest(d int, vt float64) bool {
	st := e.drives[d].st
	best, n := -1, 0
	for t, buf := range e.writes.buffer {
		if len(buf) > n && st.Available(t) {
			best, n = t, len(buf)
		}
	}
	if best < 0 {
		return false
	}
	vt, ok := e.bgSwitch(d, best, vt, &e.res.WriteSeconds)
	if ok {
		vt = e.resolveFlush(d, vt)
	}
	e.beginOp(d, vt, false)
	return true
}

// piggybackOp runs the after-sweep write work on drive d: drain the
// mounted tape's buffer when the policy piggybacks, and force-drain the
// fullest available tape when the total buffer exceeds the threshold.
// Returns whether an operation was issued.
func (e *engine) piggybackOp(d int) bool {
	w := e.writes
	if w == nil {
		return false
	}
	st := e.drives[d].st
	vt := e.now
	did := false
	if e.cfg.WritePolicy == WritePiggyback || e.cfg.WritePolicy == WritePiggybackAndIdle {
		if st.Mounted >= 0 && len(w.buffer[st.Mounted]) > 0 {
			if e.deferWrites() {
				// Graceful degradation: keep the drive on read work while
				// overloaded; the force-drain threshold below still applies.
				e.res.DeferredFlushes++
			} else {
				vt = e.resolveFlush(d, vt)
				did = true
			}
		}
	}
	// Overflow protection: take the switch hit for the fullest tape.
	if e.cfg.WriteFlushThreshold > 0 && w.buffered >= e.cfg.WriteFlushThreshold && e.flushFullest(d, vt) {
		return true
	}
	if did {
		e.beginOp(d, vt, false)
	}
	return did
}

// idleFlushOp services the largest available write buffer on drive d while
// it has nothing to read (open-model idle periods). Returns whether an
// operation was issued.
func (e *engine) idleFlushOp(d int) bool {
	w := e.writes
	if w == nil || w.buffered == 0 {
		return false
	}
	if e.cfg.WritePolicy != WriteIdleOnly && e.cfg.WritePolicy != WritePiggybackAndIdle {
		return false
	}
	if e.deferWrites() {
		e.res.DeferredFlushes++
		return false
	}
	return e.flushFullest(d, e.now)
}
