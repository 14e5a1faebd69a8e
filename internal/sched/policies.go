package sched

import (
	mathbits "math/bits"

	"tapejuke/internal/layout"
)

// Policy is a tape-selection rule used by the static and dynamic algorithms
// (Section 3.1) and by the envelope-extension algorithm's final tape choice
// (Section 3.2).
type Policy int

const (
	// RoundRobin selects the next tape in jukebox order after the mounted
	// tape that has a pending request.
	RoundRobin Policy = iota
	// MaxRequests selects a tape with the maximal number of satisfiable
	// pending requests, ties broken by jukebox order from the mounted tape.
	MaxRequests
	// MaxBandwidth selects the tape whose candidate schedule has the
	// highest effective bandwidth (bytes retrieved / (switch + execution
	// time)), ties broken by jukebox order.
	MaxBandwidth
	// OldestMaxRequests restricts the choice to tapes that can satisfy the
	// oldest pending request, then applies MaxRequests.
	OldestMaxRequests
	// OldestMaxBandwidth restricts the choice to tapes that can satisfy the
	// oldest pending request, then applies MaxBandwidth.
	OldestMaxBandwidth
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case MaxRequests:
		return "max-requests"
	case MaxBandwidth:
		return "max-bandwidth"
	case OldestMaxRequests:
		return "oldest-max-requests"
	case OldestMaxBandwidth:
		return "oldest-max-bandwidth"
	}
	return "unknown"
}

// bandwidth reports whether the policy scores tapes by effective bandwidth.
func (p Policy) bandwidth() bool { return p == MaxBandwidth || p == OldestMaxBandwidth }

// Selector is the tape-selection path of every sweep-building scheduler:
// the static and dynamic algorithms reach each tape's whole length, the
// envelope algorithms reach each tape's upper envelope. It groups the
// pending requests into per-tape sets of requests with a readable copy in
// reach, picks a tape by policy, and extracts that tape's set as the next
// sweep. The sets and scoring scratch are reused across calls, so a
// reschedule allocates nothing but the sweep. The zero value is ready.
type Selector struct {
	sets  [][]*Request // per tape: requests with a readable in-reach copy, arrival order
	pos   [][]int      // per tape: the positions of those copies, same shape
	cand  []bool       // per tape: eligible for the current choice
	urg   []float64    // per tape: highest urgency in its set (aging only)
	tapes TapeSet      // the tapes whose set is non-empty; only these are read
	ps    posSorter    // orders a candidate's set
	best  []int32      // the sweep order of the best candidate so far
}

// Reschedule picks a tape with policy p among the per-tape sets of the
// pending requests within reach (nil: every copy), and extracts the
// chosen tape's set: every request is targeted at its copy there, removed
// from the pending list, and ordered into a sweep from the tape's start
// head. ok is false when no available tape has a request in reach. The
// max-bandwidth policies score each candidate's set in sweep order, so
// the winner's order is already built; the other policies order the
// winner's set here.
func (s *Selector) Reschedule(st *State, p Policy, reach []int) (int, *Sweep, bool) {
	tape, ok := s.pick(st, p, reach)
	if !ok {
		return 0, nil, false
	}
	reqs, pos, head := s.sets[tape], s.pos[tape], st.StartHead(tape)
	if !p.bandwidth() {
		s.ps.sweepOrder(pos, head)
		s.keepOrder(pos)
	}
	for i, r := range reqs {
		r.Target = layout.Replica{Tape: tape, Pos: pos[i]}
	}
	st.RemovePending(reqs)
	return tape, st.sweep(reqs, s.best, head), true
}

// keepOrder makes the set whose positions the last sweepOrder call
// ordered the best so far: its index order goes to s.best.
func (s *Selector) keepOrder(pos []int) {
	s.ps.indexOrder(pos)
	s.best, s.ps.order = s.ps.order, s.best
}

// pick groups the pending requests into per-tape sets and returns the
// tape policy p picks among the available tapes with a non-empty set. A
// copy is in reach when its position lies below reach[t]; a nil reach
// admits every copy. The oldest-request policies keep only tapes serving
// the oldest pending request. With aging on, the choice narrows to tapes
// holding a request in the urgency window, unless none of the remaining
// candidates does (see ageWindow). ok is false when no candidate remains.
// Only the tapes with a non-empty set are visited.
func (s *Selector) pick(st *State, p Policy, reach []int) (tape int, ok bool) {
	if len(st.Pending) == 0 {
		return 0, false
	}
	s.group(st, reach, st.Layout.Tapes())

	cand := s.cand
	oldest := p == OldestMaxRequests || p == OldestMaxBandwidth
	for i, w := range s.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			cand[t] = !oldest && st.Available(t)
		}
	}
	if oldest {
		for _, c := range st.Layout.Replicas(st.Pending[0].Block) {
			if (reach == nil || c.Pos < reach[c.Tape]) && st.CopyOK(c) && st.Available(c.Tape) {
				cand[c.Tape] = true
			}
		}
	}
	if st.AgeWeight > 0 {
		s.ageWindow(st)
	}

	if p == RoundRobin {
		// The first candidate after the mounted tape, the mounted tape last.
		s.tapes.JukeboxOrder(st.Mounted+1, func(t int) bool {
			if cand[t] {
				tape, ok = t, true
			}
			return !ok
		})
		return tape, ok
	}
	bandwidth := p.bandwidth()
	best, bestScore := -1, -1.0
	s.tapes.JukeboxOrder(st.jukeboxFirst(), func(t int) bool {
		if !cand[t] {
			return true
		}
		score := float64(len(s.sets[t]))
		if bandwidth {
			score = bandwidthBits(st.Costs, st.Mounted, st.Head, t, st.StartHead(t), s.pos[t], &s.ps)
		}
		if score > bestScore {
			best, bestScore = t, score
			if bandwidth {
				s.keepOrder(s.pos[t])
			}
		}
		return true
	})
	return best, best >= 0
}

// group rebuilds the per-tape sets over st.Pending within reach, and the
// set of tapes holding them. Only the previous call's tapes have rows to
// truncate, and every row keeps its storage. cand and urg need no
// clearing: pick and ageWindow write them for every tape of the set before
// reading them, and read no other tape.
func (s *Selector) group(st *State, reach []int, n int) {
	for i, w := range s.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			s.sets[t], s.pos[t] = s.sets[t][:0], s.pos[t][:0]
		}
	}
	s.tapes.Reset(n)
	s.sets, s.pos = grow(s.sets, n), grow(s.pos, n)
	s.cand, s.urg = grow(s.cand, n), grow(s.urg, n)
	sets, pos := s.sets, s.pos
	for _, r := range st.Pending {
		for _, c := range st.Layout.Replicas(r.Block) {
			if (reach == nil || c.Pos < reach[c.Tape]) && st.CopyOK(c) {
				if len(sets[c.Tape]) == 0 {
					s.tapes.Add(c.Tape)
				}
				sets[c.Tape] = append(sets[c.Tape], r)
				pos[c.Tape] = append(pos[c.Tape], c.Pos)
			}
		}
	}
}

// grow returns s resized to n, keeping the elements already allocated
// (and so, for rows, their storage).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// ageWindow applies starvation-aware aging to the candidates: it keeps
// only tapes whose set holds a request in the urgency window [cut, max],
// where max is the highest urgency over every set and cut =
// max * AgeWeight/(1+AgeWeight). When no candidate holds such a request --
// the window's tapes are busy on other drives, or the window misses the
// tapes serving an oldest-request policy's oldest request -- the
// candidates stay as they were, so a drive never idles while an available
// tape has work and the oldest request is never starved.
func (s *Selector) ageWindow(st *State) {
	maxU := 0.0
	for i, w := range s.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			u := 0.0
			for _, r := range s.sets[t] {
				if v := st.Urgency(r); v > u {
					u = v
				}
			}
			s.urg[t] = u
			if u > maxU {
				maxU = u
			}
		}
	}
	cut := maxU * st.AgeWeight / (1 + st.AgeWeight)
	inWindow := false
	for i, w := range s.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			inWindow = inWindow || s.cand[t] && s.urg[t] >= cut
		}
	}
	if !inWindow {
		return
	}
	for i, w := range s.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			s.cand[t] = s.cand[t] && s.urg[t] >= cut
		}
	}
}

// bandwidthBits is CostModel.EffectiveBandwidth over the positions in
// single-sweep order from startHead (ascending positions at or above it,
// then descending positions below it): it sorts them (sweepOrder) and
// walks them in that order, so the serve costs accumulate in exactly the
// order ExecTime would add them and the score is bit-identical to the
// two-step computation (the tests pin this). pick calls it once per
// candidate tape per reschedule under the max-bandwidth policies, and
// keeps the order of the best tape for its sweep.
func bandwidthBits(costs *CostModel, mounted, head, tape, startHead int, positions []int, ps *posSorter) float64 {
	top := ps.sweepOrder(positions, startHead)
	total := costs.SwitchCost(mounted, head, tape) + costs.execWalk(startHead, ps.vals, top)
	if total <= 0 {
		return 0
	}
	return float64(len(positions)) * costs.BlockMB / total
}
