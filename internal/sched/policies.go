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

// Selector is the tape-selection path of every sweep-building scheduler:
// the static and dynamic algorithms reach each tape's whole length, the
// envelope algorithms reach each tape's upper envelope. It groups the
// pending requests into per-tape sets of requests with a readable copy in
// reach, picks a tape by policy, and extracts that tape's set as the next
// sweep. The sets and scoring scratch are reused across calls, so a
// reschedule allocates nothing but the sweep. The zero value is ready.
type Selector struct {
	sets [][]*Request // per tape: requests with a readable in-reach copy, arrival order
	pos  [][]int      // per tape: the positions of those copies, same shape
	cand []bool       // per tape: eligible for the current choice
	urg  []float64    // per tape: highest urgency in its set (aging only)
	bits posSorter    // bandwidthBits scratch
}

// Reschedule picks a tape with policy p among the per-tape sets of the
// pending requests within reach (nil: every copy), and extracts the
// chosen tape's set: every request is targeted at its copy there, removed
// from the pending list, and ordered into a sweep from the tape's start
// head. ok is false when no available tape has a request in reach.
func (s *Selector) Reschedule(st *State, p Policy, reach []int) (int, *Sweep, bool) {
	tape, ok := s.pick(st, p, reach)
	if !ok {
		return 0, nil, false
	}
	reqs := s.sets[tape]
	for i, r := range reqs {
		r.Target = layout.Replica{Tape: tape, Pos: s.pos[tape][i]}
	}
	st.RemovePending(reqs)
	return tape, st.NewSweep(reqs, st.StartHead(tape)), true
}

// pick groups the pending requests into per-tape sets and returns the
// tape policy p picks among the available tapes with a non-empty set. A
// copy is in reach when its position lies below reach[t]; a nil reach
// admits every copy. The oldest-request policies keep only tapes serving
// the oldest pending request. With aging on, the choice narrows to tapes
// holding a request in the urgency window, unless none of the remaining
// candidates does (see ageWindow). ok is false when no candidate remains.
func (s *Selector) pick(st *State, p Policy, reach []int) (tape int, ok bool) {
	if len(st.Pending) == 0 {
		return 0, false
	}
	n := st.Layout.Tapes()
	s.group(st, reach, n)

	cand := s.cand
	oldest := p == OldestMaxRequests || p == OldestMaxBandwidth
	for t := range cand {
		cand[t] = !oldest && len(s.sets[t]) > 0 && st.Available(t)
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
		start := st.Mounted + 1
		for i := 0; i < n; i++ {
			if t := (start + i) % n; cand[t] {
				return t, true
			}
		}
		return 0, false
	}
	bandwidth := p == MaxBandwidth || p == OldestMaxBandwidth
	best, bestScore := -1, -1.0
	st.JukeboxOrder(func(t int) bool {
		if !cand[t] {
			return true
		}
		score := float64(len(s.sets[t]))
		if bandwidth {
			score = bandwidthBits(st.Costs, st.Mounted, st.Head, t, st.StartHead(t), s.pos[t], &s.bits)
		}
		if score > bestScore {
			best, bestScore = t, score
		}
		return true
	})
	return best, best >= 0
}

// group rebuilds the per-tape sets over st.Pending within reach, reusing
// every row's storage.
func (s *Selector) group(st *State, reach []int, n int) {
	s.sets, s.pos = grow(s.sets, n), grow(s.pos, n)
	s.cand, s.urg = grow(s.cand, n), grow(s.urg, n)
	sets, pos := s.sets, s.pos
	for t := range sets {
		sets[t], pos[t] = sets[t][:0], pos[t][:0]
	}
	for _, r := range st.Pending {
		for _, c := range st.Layout.Replicas(r.Block) {
			if (reach == nil || c.Pos < reach[c.Tape]) && st.CopyOK(c) {
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
	for t, set := range s.sets {
		u := 0.0
		for _, r := range set {
			if v := st.Urgency(r); v > u {
				u = v
			}
		}
		s.urg[t] = u
		if u > maxU {
			maxU = u
		}
	}
	cut := maxU * st.AgeWeight / (1 + st.AgeWeight)
	inWindow := false
	for t, c := range s.cand {
		inWindow = inWindow || c && s.urg[t] >= cut
	}
	if !inWindow {
		return
	}
	for t := range s.cand {
		s.cand[t] = s.cand[t] && s.urg[t] >= cut
	}
}

// posSorter is reusable scratch for bandwidthBits: an occupancy bitmap
// over block positions plus per-position multiplicities. Both are kept
// all-zero between calls (the bitmap is cleared word-wise, the counts
// sparsely through the input positions), so a call touches O(range/64 + n)
// words rather than the whole position space.
type posSorter struct {
	set []uint64
	cnt []uint32
}

// bandwidthBits is CostModel.EffectiveBandwidth over the positions in
// single-sweep order from startHead (ascending positions at or above it,
// then descending positions below it), computed without materializing the
// order: a counting sort keyed by the occupancy bitmap walks the positions
// in sweep order and accumulates the serve costs directly. The additions
// happen in exactly the order ExecTime would perform them, so the score is
// bit-identical to the two-step computation (the tests pin this). pick
// calls it once per candidate tape per reschedule under the max-bandwidth
// policies.
func bandwidthBits(costs *CostModel, mounted, head, tape, startHead int, positions []int, ps *posSorter) float64 {
	maxp := -1
	for _, p := range positions {
		if p > maxp {
			maxp = p
		}
	}
	if maxp < 0 {
		return 0
	}
	words := maxp>>6 + 1
	if len(ps.set) < words {
		ps.set = make([]uint64, words)
		ps.cnt = make([]uint32, words*64)
	}
	set, cnt := ps.set, ps.cnt
	for _, p := range positions {
		set[p>>6] |= uint64(1) << uint(p&63)
		cnt[p]++
	}
	exec := 0.0
	cur := startHead
	start := startHead
	if start < 0 {
		start = 0
	}
	for w := start >> 6; w < words; w++ {
		word := set[w]
		if w == start>>6 {
			word &^= uint64(1)<<uint(start&63) - 1
		}
		for word != 0 {
			p := w<<6 | mathbits.TrailingZeros64(word)
			for c := cnt[p]; c > 0; c-- {
				step, h := costs.ServeOne(cur, p)
				exec += step
				cur = h
			}
			word &= word - 1
		}
	}
	limit := startHead
	if limit > maxp+1 {
		limit = maxp + 1
	}
	if limit > 0 {
		wtop := (limit - 1) >> 6
		for w := wtop; w >= 0; w-- {
			word := set[w]
			if w == wtop {
				if r := limit - wtop<<6; r < 64 {
					word &= uint64(1)<<uint(r) - 1
				}
			}
			for word != 0 {
				b := 63 - mathbits.LeadingZeros64(word)
				p := w<<6 | b
				for c := cnt[p]; c > 0; c-- {
					step, h := costs.ServeOne(cur, p)
					exec += step
					cur = h
				}
				word &^= uint64(1) << uint(b)
			}
		}
	}
	for i := 0; i < words; i++ {
		set[i] = 0
	}
	for _, p := range positions {
		cnt[p] = 0
	}
	total := costs.SwitchCost(mounted, head, tape) + exec
	if total <= 0 {
		return 0
	}
	return float64(len(positions)) * costs.BlockMB / total
}
