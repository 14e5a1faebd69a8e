package sched

import (
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
	Forward []*Request // ascending Target.Pos
	Reverse []*Request // descending Target.Pos

	// fwd0/rev0 remember the phase slices' backing arrays from their start
	// (Pop advances Forward/Reverse by re-slicing), so a drained sweep
	// returned to the Shared pool can rebuild in place without reallocating.
	fwd0, rev0 []*Request

	// ord, when it has remaining entries, is an explicit execution order
	// replacing the two phases (which are then empty). ord0 remembers its
	// backing array for pooling, like fwd0/rev0.
	ord, ord0 []*Request

	// sortByPos scratch.
	keys []uint64
	tmp  []*Request
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

// init (re)builds the sweep contents, reusing any backing arrays the sweep
// already owns.
func (s *Sweep) init(reqs []*Request, head int) {
	s.ord = nil
	fwd, rev := s.fwd0[:0], s.rev0[:0]
	for _, r := range reqs {
		if r.Target.Pos >= head {
			fwd = append(fwd, r)
		} else {
			rev = append(rev, r)
		}
	}
	s.sortByPos(fwd, false)
	s.sortByPos(rev, true)
	s.fwd0, s.rev0 = fwd, rev
	s.Forward, s.Reverse = fwd, rev
}

// sortByPos stable-sorts one phase by Target.Pos, descending when desc.
// Longer phases sort (pos, original index) packed into uint64 keys -- the
// index in the low bits reproduces stability exactly -- trading two extra
// passes for an ordered sort with single-instruction comparisons instead
// of a comparator-function stable sort.
func (s *Sweep) sortByPos(phase []*Request, desc bool) {
	if len(phase) < 16 {
		if desc {
			slices.SortStableFunc(phase, func(a, b *Request) int {
				return b.Target.Pos - a.Target.Pos
			})
		} else {
			slices.SortStableFunc(phase, func(a, b *Request) int {
				return a.Target.Pos - b.Target.Pos
			})
		}
		return
	}
	keys := s.keys[:0]
	for i, r := range phase {
		p := uint32(r.Target.Pos)
		if desc {
			p = ^p
		}
		keys = append(keys, uint64(p)<<32|uint64(uint32(i)))
	}
	s.keys = keys
	slices.Sort(keys)
	tmp := append(s.tmp[:0], phase...)
	s.tmp = tmp
	for i, k := range keys {
		phase[i] = tmp[uint32(k)]
	}
}

// Len returns the number of requests remaining in the sweep.
func (s *Sweep) Len() int { return len(s.ord) + len(s.Forward) + len(s.Reverse) }

// Empty reports whether the sweep has been fully executed.
func (s *Sweep) Empty() bool { return s.Len() == 0 }

// Peek returns the next request to execute without removing it, or nil.
func (s *Sweep) Peek() *Request {
	if len(s.ord) > 0 {
		return s.ord[0]
	}
	if len(s.Forward) > 0 {
		return s.Forward[0]
	}
	if len(s.Reverse) > 0 {
		return s.Reverse[0]
	}
	return nil
}

// Pop removes and returns the next request to execute, or nil.
func (s *Sweep) Pop() *Request {
	if len(s.ord) > 0 {
		r := s.ord[0]
		s.ord = s.ord[1:]
		return r
	}
	if len(s.Forward) > 0 {
		r := s.Forward[0]
		s.Forward = s.Forward[1:]
		return r
	}
	if len(s.Reverse) > 0 {
		r := s.Reverse[0]
		s.Reverse = s.Reverse[1:]
		return r
	}
	return nil
}

// Requests returns the remaining requests in execution order.
func (s *Sweep) Requests() []*Request {
	out := make([]*Request, 0, s.Len())
	out = append(out, s.ord...)
	out = append(out, s.Forward...)
	out = append(out, s.Reverse...)
	return out
}

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
func (s *Sweep) Insert(r *Request, head int) bool {
	if s.Empty() {
		return false
	}
	if len(s.ord) > 0 {
		// The sweep carries a committed explicit (RAO) order: the drive has
		// already handed the schedule down, so arrivals wait in pending.
		return false
	}
	if len(s.Forward) > 0 {
		if r.Target.Pos >= head {
			s.insertForward(r)
		} else {
			s.insertReverse(r)
		}
		return true
	}
	// Reverse phase in progress.
	if r.Target.Pos <= head {
		s.insertReverse(r)
		return true
	}
	return false
}

func (s *Sweep) insertForward(r *Request) {
	i := sort.Search(len(s.Forward), func(i int) bool {
		return s.Forward[i].Target.Pos > r.Target.Pos
	})
	s.Forward = append(s.Forward, nil)
	copy(s.Forward[i+1:], s.Forward[i:])
	s.Forward[i] = r
}

func (s *Sweep) insertReverse(r *Request) {
	i := sort.Search(len(s.Reverse), func(i int) bool {
		return s.Reverse[i].Target.Pos < r.Target.Pos
	})
	s.Reverse = append(s.Reverse, nil)
	copy(s.Reverse[i+1:], s.Reverse[i:])
	s.Reverse[i] = r
}

// Remove deletes r (matched by pointer identity) from the sweep, preserving
// the order of the remaining requests. It reports whether r was present.
// The engine uses it to cancel deadline-expired requests out of in-flight
// sweeps without rebuilding the schedule.
func (s *Sweep) Remove(r *Request) bool {
	for i, q := range s.ord {
		if q == r {
			s.ord = append(s.ord[:i], s.ord[i+1:]...)
			return true
		}
	}
	for i, q := range s.Forward {
		if q == r {
			s.Forward = append(s.Forward[:i], s.Forward[i+1:]...)
			return true
		}
	}
	for i, q := range s.Reverse {
		if q == r {
			s.Reverse = append(s.Reverse[:i], s.Reverse[i+1:]...)
			return true
		}
	}
	return false
}

// MaxPos returns the highest position remaining in the sweep, or -1 when the
// sweep is empty. The envelope incremental scheduler uses it to detect
// whether an insertion extends the traversed prefix.
func (s *Sweep) MaxPos() int {
	max := -1
	for _, r := range s.ord {
		if r.Target.Pos > max {
			max = r.Target.Pos
		}
	}
	if n := len(s.Forward); n > 0 && s.Forward[n-1].Target.Pos > max {
		max = s.Forward[n-1].Target.Pos
	}
	if len(s.Reverse) > 0 && s.Reverse[0].Target.Pos > max {
		max = s.Reverse[0].Target.Pos
	}
	return max
}
