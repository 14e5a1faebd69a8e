package sched

import (
	"slices"

	"tapejuke/internal/layout"
)

// Shared is the scheduling state common to every drive of a jukebox: the
// data layout, the cost model, the arrival-ordered pending list, and the
// availability masks. A multi-drive jukebox has one Shared and one State
// view per drive; the single-drive case is simply one view.
type Shared struct {
	Layout *layout.Layout
	Costs  *CostModel

	Pending []*Request // unscheduled requests in arrival order

	// Busy marks tapes claimed by a drive (mounted, or being loaded): no
	// other drive may select them. The drive's own mounted tape is marked
	// here too; Available exempts it. nil means every tape is free (the
	// single-drive engine never allocates the vector).
	Busy []bool

	// Down marks tapes that have permanently failed (the fault model's
	// unavailable-tape mask). Schedulers must not select a down tape nor
	// target a copy on one; requests whose every copy is down are the
	// engine's problem (reported unserviceable), never a scheduler's.
	// nil means every tape is up.
	Down []bool

	// DeadCopy, when non-nil, is the fault model's dead-copy table: the
	// physical copies that are permanently unreadable (media bad blocks,
	// or transient errors escalated after retry exhaustion). The engine
	// shares the injector's own table, so an escalation shows here the
	// moment it is marked. Schedulers must not target a dead copy.
	DeadCopy *layout.PosSet

	// Fenced marks drives withdrawn from scheduling for maintenance (the
	// health extension's drive fence, the drive-side analogue of Down).
	// The engine checks the mask before issuing work on a drive; it is
	// indexed by drive, not tape, so schedulers -- which see one drive's
	// State at a time -- never consult it. nil means no drive is fenced.
	Fenced []bool

	// Now is the current simulation time, maintained by the engine. Only the
	// aging term reads it; with AgeWeight zero it is never consulted.
	Now float64

	// AgeWeight enables starvation-aware aging in tape selection: a policy
	// restricts its choice to tapes that can serve a request whose urgency
	// (see Urgency) is at least AgeWeight/(1+AgeWeight) of the maximum over
	// the pending list. Zero disables aging and leaves every policy
	// bit-identical to the unaged implementation; the limit of large weights
	// converges on the paper's oldest-request restriction.
	AgeWeight float64

	// sweepFree pools drained Sweep structs (returned by ReleaseSweep) so
	// steady-state reschedules reuse sweep headers and request arrays
	// instead of allocating fresh ones per sweep.
	sweepFree []*Sweep

	// NewSweep's ordering scratch: the requests' positions and their
	// sweep order.
	pos []int
	ps  posSorter
}

// NewSweep builds a sweep over the given requests (whose Targets must
// already be set and lie on one tape), starting from head position `head`:
// requests at or above the head form the forward phase in ascending order;
// requests below the head form the reverse phase in descending order. Ties
// on position keep the order of reqs.
func (sh *Shared) NewSweep(reqs []*Request, head int) *Sweep {
	sh.pos = sh.pos[:0]
	for _, r := range reqs {
		sh.pos = append(sh.pos, r.Target.Pos)
	}
	sh.ps.sweepOrder(sh.pos, head)
	sh.ps.indexOrder(sh.pos)
	return sh.sweep(reqs, sh.ps.order, head)
}

// sweep builds a sweep over reqs[order[0]], reqs[order[1]], ..., which
// must be the requests' sweep order from head by their target positions
// (posSorter), drawing the Sweep struct and its request array from the
// pool when one is free; reqs must not alias a pooled array.
func (sh *Shared) sweep(reqs []*Request, order []int32, head int) *Sweep {
	var s *Sweep
	if n := len(sh.sweepFree); n > 0 {
		s = sh.sweepFree[n-1]
		sh.sweepFree[n-1] = nil
		sh.sweepFree = sh.sweepFree[:n-1]
	} else {
		s = &Sweep{}
	}
	buf := slices.Grow(s.buf[:0], len(order))
	nfwd := 0
	for _, k := range order {
		r := reqs[k]
		if r.Target.Pos >= head {
			nfwd++
		}
		buf = append(buf, r)
	}
	s.buf, s.next, s.nfwd, s.frozen = buf, 0, nfwd, false
	return s
}

// ReleaseSweep returns a sweep the engine has finished executing (drained,
// aborted, or replaced) to the pool. The caller must drop every reference
// to the sweep; nil is ignored.
func (sh *Shared) ReleaseSweep(s *Sweep) {
	if s == nil {
		return
	}
	clear(s.buf[:cap(s.buf)])
	s.buf, s.next, s.nfwd, s.frozen = s.buf[:0], 0, 0, false
	sh.sweepFree = append(sh.sweepFree, s)
}

// Reset prepares the Shared for a fresh run over a (possibly different)
// layout and cost model, dropping every reference to the previous run's
// requests while keeping the allocated storage: the pending list's backing
// array and the drained-sweep pool survive, so a session that reuses one
// Shared across runs pays no per-run sweep or pending allocation.
func (sh *Shared) Reset(l *layout.Layout, costs *CostModel) {
	for i := range sh.Pending {
		sh.Pending[i] = nil
	}
	sh.Pending = sh.Pending[:0]
	sh.Layout, sh.Costs = l, costs
	sh.Busy, sh.Down, sh.DeadCopy, sh.Fenced = nil, nil, nil, nil
	sh.Now, sh.AgeWeight = 0, 0
}

// slackFloor bounds deadline slack away from zero so the urgency of a
// request at (or past) its deadline stays finite.
const slackFloor = 1e-9

// Urgency scores how badly a pending request needs service at Shared.Now:
// its age for deadline-free requests, and age scaled by TTL/slack for
// deadlined ones, so a request nearing its deadline dominates an older
// request with time to spare. Used by the aging tape-selection term.
func (sh *Shared) Urgency(r *Request) float64 {
	age := sh.Now - r.Arrival
	if age < 0 {
		age = 0
	}
	if r.Deadline <= 0 {
		return age
	}
	slack := r.Deadline - sh.Now
	if slack < slackFloor {
		slack = slackFloor
	}
	return age * (r.Deadline - r.Arrival) / slack
}

// State is the scheduling view of one drive: the shared jukebox state plus
// the drive's mounted tape, head position, and in-flight sweep. The
// simulation engine owns and mutates it; schedulers read it and carve
// requests out of the pending list.
type State struct {
	*Shared

	Mounted int // mounted tape index, or -1 for an empty drive
	Head    int // head position (block boundary) on the mounted tape

	Active *Sweep // the sweep currently executing on this drive, nil when idle
}

// NewState builds a single-drive scheduling state (its own Shared) over the
// given layout and cost model, with an empty drive.
func NewState(l *layout.Layout, costs *CostModel) *State {
	return &State{
		Shared:  &Shared{Layout: l, Costs: costs},
		Mounted: -1,
	}
}

// Up reports whether the tape has not permanently failed.
func (sh *Shared) Up(tape int) bool {
	return sh.Down == nil || !sh.Down[tape]
}

// Available reports whether the major rescheduler may select the tape:
// neither claimed by another drive nor permanently failed. The drive's own
// mounted tape is marked busy in the shared vector but stays available to
// this view.
func (st *State) Available(tape int) bool {
	if st.Busy != nil && st.Busy[tape] && tape != st.Mounted {
		return false
	}
	return st.Up(tape)
}

// CopyOK reports whether the physical copy is readable: its tape is up and
// the copy itself is not dead. It inlines at every call site: two nil
// checks on the fault-free path, and two table loads with the masks armed.
func (sh *Shared) CopyOK(c layout.Replica) bool {
	return (sh.Down == nil || !sh.Down[c.Tape]) &&
		(sh.DeadCopy == nil || !sh.DeadCopy.Has(c.Tape, c.Pos))
}

// UsableOn returns block b's copy on the given tape when that copy exists
// and is readable.
func (sh *Shared) UsableOn(b layout.BlockID, tape int) (layout.Replica, bool) {
	c, ok := sh.Layout.ReplicaOn(b, tape)
	if !ok || !sh.CopyOK(c) {
		return layout.Replica{}, false
	}
	return c, true
}

// Serviceable reports whether at least one readable copy of block b
// remains anywhere in the jukebox.
func (sh *Shared) Serviceable(b layout.BlockID) bool {
	for _, c := range sh.Layout.Replicas(b) {
		if sh.CopyOK(c) {
			return true
		}
	}
	return false
}

// Scheduler is a scheduling algorithm: a major rescheduler invoked at tape
// switch time plus an incremental scheduler for requests that arrive during
// the execution of a service list (Section 2.2).
type Scheduler interface {
	// Name identifies the algorithm (e.g. "dynamic-max-bandwidth").
	Name() string

	// Reschedule selects the tape to service next, extracts the requests it
	// will serve from sh.Pending (setting their Targets), and returns the
	// tape and the service lish. ok is false when nothing can be scheduled
	// (empty pending list). Reschedule must not mutate sh.Mounted/sh.Head;
	// the engine performs the switch.
	Reschedule(st *State) (tape int, sweep *Sweep, ok bool)

	// OnArrival offers a newly arrived request to the incremental
	// scheduler while a sweep is executing. It returns true if the request
	// was inserted into sh.Active; on false the engine appends the request
	// to sh.Pending.
	OnArrival(st *State, r *Request) bool
}

// CopyObserver is implemented by schedulers whose incremental state
// depends on the replica tables. The repair subsystem mutates the layout
// at run time -- minting a copy when a repair write settles, removing one
// at reclaim -- and notifies every drive's scheduler so state built from
// the tables (the envelope) can adjust mid-sweep instead of waiting for
// the next major reschedule. Schedulers that recompute from the live
// layout on every decision need not implement it.
type CopyObserver interface {
	// OnCopyAdded reports a newly minted copy of block b at c.
	OnCopyAdded(st *State, b layout.BlockID, c layout.Replica)
	// OnCopyRemoved reports that block b's copy at c left the tables.
	OnCopyRemoved(st *State, b layout.BlockID, c layout.Replica)
}

// RunResetter is implemented by schedulers that carry state across
// reschedules within one run and can restore their just-constructed
// observable state while keeping allocated scratch. A session runner may
// reuse a scheduler across runs only if it implements RunResetter (and
// calls ResetRun between runs) or carries nothing from one reschedule to
// the next, like FIFO and the static/dynamic algorithms (whose Selector
// scratch is rebuilt on every call); anything else must be built fresh.
type RunResetter interface {
	ResetRun()
}

// RemovePending deletes the given requests (matched by pointer identity)
// from the pending list, preserving arrival order of the remainder.
//
// taken must be an ordered subsequence of Pending, as every scheduler's
// extraction produces: Selector builds each tape's set by walking Pending,
// and FIFO takes one request. Removal is then one in-place filtering pass
// with no allocation; a taken slice out of Pending's order panics.
func (sh *Shared) RemovePending(taken []*Request) {
	if len(taken) == 0 {
		return
	}
	kept := sh.Pending[:0]
	k := 0
	for _, r := range sh.Pending {
		if k < len(taken) && r == taken[k] {
			k++
			continue
		}
		kept = append(kept, r)
	}
	if k < len(taken) {
		panic("sched: RemovePending needs taken in Pending's order, each request pending")
	}
	// Zero the tail so dropped requests do not linger in the backing
	// array.
	for i := len(kept); i < len(sh.Pending); i++ {
		sh.Pending[i] = nil
	}
	sh.Pending = kept
}

// StartHead returns the head position a schedule on `tape` would execute
// from: the current head when the tape is already mounted, 0 after a switch.
func (st *State) StartHead(tape int) int {
	if tape == st.Mounted {
		return st.Head
	}
	return 0
}
