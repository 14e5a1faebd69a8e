package sched

import (
	"cmp"
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

	keys []uint64 // init's sort scratch
}

// NewSweep builds a sweep over the given requests (whose Targets must
// already be set and lie on one tape), starting from head position `head`:
// requests at or above the head form the forward phase in ascending order;
// requests below the head form the reverse phase in descending order. Ties
// on position preserve arrival order.
func NewSweep(reqs []*Request, head int) *Sweep {
	s := &Sweep{}
	s.init(reqs, head)
	return s
}

// smallSort is the size below which a comparison sort is cheapest:
// Sweep.init stable-sorts fewer requests by comparison and bandwidthBits
// insertion-sorts fewer positions, while from smallSort on Sweep.init
// sorts packed keys and bandwidthBits walks an occupancy bitmap.
const smallSort = 16

// init (re)builds the sweep contents, reusing any backing arrays the sweep
// already owns; reqs must not alias them. smallSort or more requests sort
// (phaseKey, original index) packed into uint64s -- the index in the low
// bits reproduces stability exactly -- trading two extra passes for an
// ordered sort with single-instruction comparisons instead of a
// comparator-function stable sort.
func (s *Sweep) init(reqs []*Request, head int) {
	s.next, s.nfwd, s.frozen = 0, 0, false
	for _, r := range reqs {
		if r.Target.Pos >= head {
			s.nfwd++
		}
	}
	buf := slices.Grow(s.buf[:0], len(reqs))
	if len(reqs) < smallSort {
		buf = append(buf, reqs...)
		slices.SortStableFunc(buf, func(a, b *Request) int {
			return cmp.Compare(phaseKey(a.Target.Pos, head), phaseKey(b.Target.Pos, head))
		})
	} else {
		keys := slices.Grow(s.keys[:0], len(reqs))
		for i, r := range reqs {
			keys = append(keys, uint64(phaseKey(r.Target.Pos, head))<<32|uint64(uint32(i)))
		}
		slices.Sort(keys)
		for _, k := range keys {
			buf = append(buf, reqs[uint32(k)])
		}
		s.keys = keys
	}
	s.buf = buf
}

// phaseKey orders the forward phase (positions at or above the head)
// ascending, then the reverse phase descending: a reverse position takes
// its 32-bit complement, which sorts above every forward position as long
// as positions stay below 2^31.
func phaseKey(pos, head int) uint32 {
	if pos < head {
		return ^uint32(pos)
	}
	return uint32(pos)
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
