// Package core implements the envelope-extension scheduling algorithm of
// Section 3.2, the paper's primary contribution.
//
// The algorithm takes a global view across all tapes. The requests for
// non-replicated blocks pin down, per tape, a prefix that must be traversed
// no matter what; the collection of these prefixes is the "envelope".
// Requested blocks whose replicas already fall inside the envelope are
// absorbed for free. The envelope is then repeatedly extended by the prefix
// of unscheduled requests with the highest incremental bandwidth, and shrunk
// whenever a replicated block scheduled at the outer edge of one tape's
// envelope becomes satisfiable inside another tape's newly enclosed portion.
// The result is the "upper envelope", which satisfies every request; a
// tape-selection policy then picks which tape to service first, through
// sched.Selector with the envelope bounding each tape's requests.
//
// Scheduling retrievals in this setting is NP-hard (Theorem 1); the
// envelope-extension heuristic is within a harmonic factor of the optimal
// extension (Theorem 2), which package core exposes via Theorem2Bound.
package core

import (
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
	"tapejuke/internal/tapemodel"
)

// Variant selects the tape-switch policy the envelope algorithm applies to
// the per-tape request sets within the upper envelope.
type Variant int

const (
	// OldestRequest restricts the choice to tapes that can satisfy the
	// oldest pending request within the envelope, then picks the one with
	// the most satisfiable requests ("oldest request envelope").
	OldestRequest Variant = iota
	// MaxRequests picks the tape with the most requests satisfiable within
	// the envelope ("max requests envelope").
	MaxRequests
	// MaxBandwidth picks the tape with the highest effective bandwidth for
	// its within-envelope schedule ("max bandwidth envelope"). The paper's
	// recommended algorithm.
	MaxBandwidth
)

// String names the variant.
func (v Variant) String() string {
	switch v {
	case OldestRequest:
		return "oldest-request"
	case MaxRequests:
		return "max-requests"
	case MaxBandwidth:
		return "max-bandwidth"
	}
	return "unknown"
}

// policy is the sched policy the variant applies within the envelope.
func (v Variant) policy() sched.Policy {
	switch v {
	case OldestRequest:
		return sched.OldestMaxRequests
	case MaxBandwidth:
		return sched.MaxBandwidth
	}
	return sched.MaxRequests
}

// Envelope is the envelope-extension scheduler. It satisfies
// sched.Scheduler. With no replicated data it degenerates into the dynamic
// algorithm with the same policy, as the paper observes.
//
// An Envelope reuses its builder and its sched.Selector across
// reschedules, so the steady-state major-reschedule path is allocation-free
// apart from the sweep handed back to the engine.
type Envelope struct {
	variant Variant
	env     []int // upper envelope from the last major reschedule, per tape
	env0    []int // retired env backing stashed by ResetRun for reuse

	b   *builder       // reusable envelope construction state
	sel sched.Selector // tape choice and extraction within the envelope
}

// NewEnvelope returns the envelope-extension scheduler with the given
// tape-selection variant.
func NewEnvelope(v Variant) *Envelope { return &Envelope{variant: v} }

// Name returns e.g. "envelope-max-bandwidth".
func (e *Envelope) Name() string { return "envelope-" + e.variant.String() }

// ResetRun implements sched.RunResetter: it restores the just-constructed
// observable state (no envelope yet -- OnArrival and OnEvict key off
// e.env == nil) while parking the envelope's backing array and keeping the
// builder and selection scratch, so a reused scheduler starts the next run
// identical to a fresh one but without re-growing ~35 KB of buffers.
func (e *Envelope) ResetRun() {
	if e.env != nil {
		e.env0 = e.env[:0]
	}
	e.env = nil
}

// Variant returns the tape-selection variant.
func (e *Envelope) Variant() Variant { return e.variant }

// UpperEnvelope returns the per-tape envelope boundaries computed by the
// most recent major reschedule (block-boundary positions: env[t] = p means
// the schedule traverses tape t up to, but not past, position p). It returns
// nil before the first reschedule. Exposed for tests and instrumentation.
func (e *Envelope) UpperEnvelope() []int { return e.env }

// Reschedule computes the upper envelope over the whole pending list,
// selects a tape with the configured variant, and extracts every pending
// request satisfiable by that tape within the envelope.
func (e *Envelope) Reschedule(st *sched.State) (int, *sched.Sweep, bool) {
	if len(st.Pending) == 0 {
		return 0, nil, false
	}
	if e.b == nil {
		e.b = &builder{}
	}
	e.b.reset(st)
	e.b.build()
	// Copy the envelope out of the builder: e.env must survive (OnArrival
	// mutates it) while the builder is reset by the next reschedule. After a
	// ResetRun the backing array is parked in env0; reclaim it here so
	// reusing the scheduler across runs stays allocation-free.
	if e.env == nil {
		e.env, e.env0 = e.env0, nil
	}
	e.env = append(e.env[:0], e.b.env...)
	// Extract the requests satisfiable by the chosen tape within the upper
	// envelope (in general a superset of the per-tape schedule built during
	// envelope construction -- replicated requests assigned elsewhere may
	// also have an in-envelope copy there).
	return e.sel.Reschedule(st, e.variant.policy(), e.env)
}

// OnArrival implements the envelope incremental scheduler. A request for a
// block with a copy on the current tape inside the upper envelope is
// inserted into the in-flight sweep like the dynamic algorithms do.
// Otherwise the extension machinery (steps 3-5) runs for the single new
// request to decide which tape and copy should satisfy it; if that choice is
// the current tape and the position is still ahead of the head, the request
// joins the sweep, else it is deferred to the pending list.
func (e *Envelope) OnArrival(st *sched.State, r *sched.Request) bool {
	if st.Active == nil || st.Mounted < 0 || e.env == nil || !st.Up(st.Mounted) {
		return false
	}
	if c, ok := st.Layout.ReplicaOn(r.Block, st.Mounted); ok && c.Pos < e.env[st.Mounted] && st.CopyOK(c) {
		r.Target = c
		return st.Active.Insert(r, st.Head)
	}
	// Single-request envelope extension: choose the replica whose envelope
	// extension has the lowest incremental cost (equivalently, for one
	// block, the highest incremental bandwidth).
	bestTape, bestCost := -1, 0.0
	var bestCopy layout.Replica
	for _, c := range st.Layout.Replicas(r.Block) {
		if !st.CopyOK(c) {
			continue
		}
		cost := extensionCost(st, e.env[c.Tape], c.Tape, []int{c.Pos})
		if bestTape < 0 || cost < bestCost {
			bestTape, bestCost, bestCopy = c.Tape, cost, c
		}
	}
	if bestTape < 0 {
		return false
	}
	if bestCopy.Pos+1 > e.env[bestTape] {
		e.env[bestTape] = bestCopy.Pos + 1
	}
	if bestTape == st.Mounted {
		r.Target = bestCopy
		return st.Active.Insert(r, st.Head)
	}
	return false
}

// OnEvict tells the scheduler the engine cancelled r (deadline expiry) out
// of the drive's in-flight sweep. When r was scheduled on the mounted tape,
// the envelope boundary tightens to the remaining sweep's reach -- the head
// plus whatever is still scheduled ahead of it -- without a full rebuild, so
// incremental arrivals no longer ride through positions the sweep will never
// visit. Implements the engine's optional evictor hook.
func (e *Envelope) OnEvict(st *sched.State, r *sched.Request) {
	if e.env == nil || st.Mounted < 0 || r.Target.Tape != st.Mounted {
		return
	}
	edge := st.Head
	if st.Active != nil {
		if m := st.Active.MaxPos(); m+1 > edge {
			edge = m + 1
		}
	}
	if edge < e.env[st.Mounted] {
		e.env[st.Mounted] = edge
	}
}

// OnCopyAdded tells the scheduler the repair subsystem minted a new copy
// of block b at c. When the copy lands on the mounted tape ahead of the
// head during an active sweep, the envelope extends over it so
// incremental arrivals can target the fresh copy this pass -- the same
// extension OnArrival performs for a chosen replica. Copies elsewhere
// need nothing: every reschedule rebuilds the envelope from the live
// replica tables. Implements the engine's optional sched.CopyObserver
// hook.
func (e *Envelope) OnCopyAdded(st *sched.State, b layout.BlockID, c layout.Replica) {
	if e.env == nil || st.Active == nil || st.Mounted < 0 || c.Tape != st.Mounted {
		return
	}
	if c.Pos >= st.Head && c.Pos+1 > e.env[c.Tape] {
		e.env[c.Tape] = c.Pos + 1
	}
}

// OnCopyRemoved tells the scheduler a copy of block b at c was reclaimed.
// When the removed copy sat at the mounted tape's envelope edge, the
// boundary tightens to the remaining sweep's reach, exactly as OnEvict
// does, so incremental arrivals stop riding through a position nothing
// will visit.
func (e *Envelope) OnCopyRemoved(st *sched.State, b layout.BlockID, c layout.Replica) {
	if e.env == nil || st.Mounted < 0 || c.Tape != st.Mounted || c.Pos+1 != e.env[c.Tape] {
		return
	}
	edge := st.Head
	if st.Active != nil {
		if m := st.Active.MaxPos(); m+1 > edge {
			edge = m + 1
		}
	}
	if edge < e.env[st.Mounted] {
		e.env[st.Mounted] = edge
	}
}

// Theorem2Bound returns the paper's Theorem 2 upper bound on the extension
// cost of the envelope schedule: with n requests unscheduled at the end of
// step 2, C(S2) - C(S1) <= H_n*(C(S2opt)-C(S1)) - n*(H_n-1)*(Cs+Cr) + n*Cd,
// where Cs is the short-forward-locate startup, Cr the block transfer time,
// Cd the difference between the long and short forward startup costs, and
// H_n the n-th harmonic number. optExtension is C(S2opt) - C(S1).
// The bound's constants come from the piecewise-linear helical-scan model,
// so it takes the concrete Profile rather than the Positioner interface.
func Theorem2Bound(prof *tapemodel.Profile, blockMB float64, n int, optExtension float64) float64 {
	h := stats.Harmonic(n)
	cs := prof.ShortForward.Startup
	cr := prof.Read(blockMB, 0)
	cd := prof.LongForward.Startup - prof.ShortForward.Startup
	nf := float64(n)
	return h*optExtension - nf*(h-1)*(cs+cr) + nf*cd
}
