package sched

import (
	mathbits "math/bits"
	"slices"
	"sort"
)

// Sweep is a service list that executes in a single pass over the tape: a
// forward phase (ascending positions, forward locates only) followed by a
// reverse phase (descending positions, reverse locates only). Section 2.2.
//
// FIFO schedules are represented as degenerate sweeps holding one request.
//
// A sweep can alternatively carry an explicit execution order (set by
// ReorderRAO) that overrides the two-phase elevator order; see that method
// for the semantics.
type Sweep struct {
	// buf[next:] holds the remaining requests in execution order. Unless
	// the sweep is frozen, its first nfwd entries are the forward phase and
	// the rest the reverse phase. Pop advances next instead of re-slicing,
	// so the one backing array -- including whatever Insert grew it to --
	// survives a trip through the Shared pool.
	buf    []*Request
	next   int
	nfwd   int
	frozen bool // explicit (RAO) order: no phases, Insert declines
}

// smallSort is the set size from which sweepOrder counts positions into
// an occupancy bitmap instead of sorting them by insertion.
const smallSort = 16

// posSorter orders a tape's positions into single-sweep order from a head
// -- ascending positions at or above it, then descending positions below
// it -- in two steps. sweepOrder sorts the positions themselves, which is
// all a bandwidth score needs; indexOrder then gives their indices in the
// same order, equal positions in index order, which a sweep needs, so the
// selector pays it only for a tape that takes the lead. Fewer than
// smallSort positions are sorted by insertion, indices alongside. More are
// counted into an occupancy bitmap, whose walk upward from the head and
// then downward below it emits the sorted positions and leaves each
// occupied position's first slot for indexOrder. The walk clears each
// word it reads, and a position's count is written when its bit is first
// set, so a call touches O(range/64 + n) words rather than the whole
// position space.
type posSorter struct {
	vals  []int    // the positions in sweep order (sweepOrder)
	order []int32  // their indices in the same order (indexOrder)
	set   []uint64 // occupancy bitmap over block positions, all-zero between calls
	cnt   []uint32 // per occupied position: its count, then its next slot
	small bool     // the last sweepOrder sorted by insertion, order included
}

// sweepOrder sets ps.vals to positions in single-sweep order from head and
// returns the highest position (-1 when there is none).
func (ps *posSorter) sweepOrder(positions []int, head int) (top int) {
	n := len(positions)
	vals := slices.Grow(ps.vals[:0], n)[:n]
	ps.vals = vals
	top = -1
	if ps.small = n < smallSort; ps.small {
		order := slices.Grow(ps.order[:0], n)[:n]
		ps.order = order
		k := 0
		for i, p := range positions {
			top = max(top, p)
			if p >= head {
				j := k
				for ; j > 0 && vals[j-1] > p; j-- {
					vals[j], order[j] = vals[j-1], order[j-1]
				}
				vals[j], order[j] = p, int32(i)
				k++
			}
		}
		nfwd := k
		for i, p := range positions {
			if p < head {
				j := k
				for ; j > nfwd && vals[j-1] < p; j-- {
					vals[j], order[j] = vals[j-1], order[j-1]
				}
				vals[j], order[j] = p, int32(i)
				k++
			}
		}
		return top
	}
	set, cnt := ps.set, ps.cnt
	for _, p := range positions {
		top = max(top, p)
		w, bit := p>>6, uint64(1)<<uint(p&63)
		if w >= len(set) {
			set = append(set, make([]uint64, w+1-len(set))...)
			cnt = append(cnt, make([]uint32, len(set)*64-len(cnt))...)
			ps.set, ps.cnt = set, cnt
		}
		if set[w]&bit == 0 {
			set[w] |= bit
			cnt[p] = 1
		} else {
			cnt[p]++
		}
	}
	// Emit each occupied position as often as it occurs, and turn its count
	// into its first slot. The upward walk leaves the bits below the head
	// in their word for the downward walk.
	words, start, k := top>>6+1, max(head, 0), uint32(0)
	for w := start >> 6; w < words; w++ {
		word := set[w]
		set[w] = 0
		if w == start>>6 {
			below := uint64(1)<<uint(start&63) - 1
			set[w], word = word&below, word&^below
		}
		for ; word != 0; word &= word - 1 {
			p := w<<6 | mathbits.TrailingZeros64(word)
			c := cnt[p]
			cnt[p] = k
			for end := k + c; k < end; k++ {
				vals[k] = p
			}
		}
	}
	for w := min(start>>6, words-1); w >= 0; w-- {
		word := set[w]
		set[w] = 0
		for word != 0 {
			b := 63 - mathbits.LeadingZeros64(word)
			p := w<<6 | b
			c := cnt[p]
			cnt[p] = k
			for end := k + c; k < end; k++ {
				vals[k] = p
			}
			word &^= uint64(1) << uint(b)
		}
	}
	return top
}

// indexOrder sets ps.order to the indices of the positions the last
// sweepOrder call ordered, in its order, equal positions in index order.
// It takes the same positions and may follow that call once.
func (ps *posSorter) indexOrder(positions []int) {
	if ps.small {
		return
	}
	order := slices.Grow(ps.order[:0], len(positions))[:len(positions)]
	for i, p := range positions {
		order[ps.cnt[p]] = int32(i)
		ps.cnt[p]++
	}
	ps.order = order
}

// Len returns the number of requests remaining in the sweep.
func (s *Sweep) Len() int { return len(s.buf) - s.next }

// Empty reports whether the sweep has been fully executed.
func (s *Sweep) Empty() bool { return s.Len() == 0 }

// Pop removes and returns the next request to execute, or nil.
func (s *Sweep) Pop() *Request {
	if s.Empty() {
		return nil
	}
	r := s.buf[s.next]
	s.next++
	if s.nfwd > 0 {
		s.nfwd--
	}
	return r
}

// Requests returns the remaining requests in execution order. The slice is
// the sweep's own storage, not a copy: it is valid until the sweep next
// changes.
func (s *Sweep) Requests() []*Request { return s.buf[s.next:] }

// Insert adds r (whose Target must be on the mounted tape) to the in-flight
// sweep if its position is still ahead of the head in the existing schedule,
// per the dynamic incremental scheduler of Section 3.1. It returns false if
// the position has already been passed, in which case the caller defers the
// request to the pending list.
//
//   - While the forward phase is active (head moving up), positions at or
//     above the head join the forward phase; positions below the head join
//     the not-yet-started reverse phase.
//   - Once the reverse phase has begun (head moving down), only positions at
//     or below the head can still be served in this sweep.
//
// Either way r goes after the entries at its own position.
func (s *Sweep) Insert(r *Request, head int) bool {
	if s.Empty() || s.frozen {
		// A frozen sweep carries a committed explicit (RAO) order: the drive
		// has already handed the schedule down, so arrivals wait in pending.
		return false
	}
	pos, rest := r.Target.Pos, s.buf[s.next:]
	var i int
	switch {
	case s.nfwd > 0 && pos >= head:
		i = sort.Search(s.nfwd, func(i int) bool { return rest[i].Target.Pos > pos })
		s.nfwd++
	case s.nfwd > 0 || pos <= head:
		rev := rest[s.nfwd:]
		i = s.nfwd + sort.Search(len(rev), func(i int) bool { return rev[i].Target.Pos < pos })
	default:
		return false
	}
	s.buf = slices.Insert(s.buf, s.next+i, r)
	return true
}

// Remove deletes r (matched by pointer identity) from the sweep, preserving
// the order of the remaining requests. It reports whether r was present.
// The engine uses it to cancel deadline-expired requests out of in-flight
// sweeps without rebuilding the schedule.
func (s *Sweep) Remove(r *Request) bool {
	i := slices.Index(s.buf[s.next:], r)
	if i < 0 {
		return false
	}
	if i < s.nfwd {
		s.nfwd--
	}
	s.buf = slices.Delete(s.buf, s.next+i, s.next+i+1)
	return true
}

// MaxPos returns the highest position remaining in the sweep, or -1 when the
// sweep is empty. The envelope incremental scheduler uses it to detect
// whether an insertion extends the traversed prefix.
func (s *Sweep) MaxPos() int {
	rest, max := s.buf[s.next:], -1
	if s.frozen {
		for _, r := range rest {
			if r.Target.Pos > max {
				max = r.Target.Pos
			}
		}
		return max
	}
	if s.nfwd > 0 {
		max = rest[s.nfwd-1].Target.Pos
	}
	if s.nfwd < len(rest) && rest[s.nfwd].Target.Pos > max {
		max = rest[s.nfwd].Target.Pos
	}
	return max
}
