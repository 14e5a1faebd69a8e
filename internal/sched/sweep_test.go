package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"tapejuke/internal/layout"
)

// newSweep builds a sweep over reqs from head through a fresh Shared.
func newSweep(reqs []*Request, head int) *Sweep { return new(Shared).NewSweep(reqs, head) }

func req(id int64, pos int) *Request {
	return &Request{ID: id, Target: layout.Replica{Tape: 0, Pos: pos}}
}

// phases splits the remaining sweep into its forward and reverse runs.
func phases(s *Sweep) (fwd, rev []*Request) {
	rest := s.buf[s.next:]
	return rest[:s.nfwd], rest[s.nfwd:]
}

func popOrder(s *Sweep) []int {
	var out []int
	for !s.Empty() {
		out = append(out, s.Pop().Target.Pos)
	}
	return out
}

func TestSweepOrdering(t *testing.T) {
	// Head at 10: 12, 30 forward ascending; 7, 3 reverse descending.
	s := newSweep([]*Request{req(1, 30), req(2, 7), req(3, 12), req(4, 3)}, 10)
	want := []int{12, 30, 7, 3}
	got := popOrder(s)
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSweepHeadZeroAllForward(t *testing.T) {
	s := newSweep([]*Request{req(1, 5), req(2, 2), req(3, 9)}, 0)
	if _, rev := phases(s); len(rev) != 0 {
		t.Fatal("head 0 should produce a purely forward sweep")
	}
	got := popOrder(s)
	if got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("forward order = %v", got)
	}
}

func TestSweepTiesPreserveArrival(t *testing.T) {
	a, b := req(1, 5), req(2, 5)
	s := newSweep([]*Request{a, b}, 0)
	if s.Pop() != a || s.Pop() != b {
		t.Error("equal positions should pop in arrival order")
	}
}

func TestSweepInsertForwardPhase(t *testing.T) {
	s := newSweep([]*Request{req(1, 10), req(2, 20)}, 0)
	// Ahead of head in forward phase: accepted into forward order.
	if !s.Insert(req(3, 15), 5) {
		t.Fatal("insert ahead of head rejected")
	}
	// Behind the head during forward phase: joins the reverse phase.
	if !s.Insert(req(4, 2), 5) {
		t.Fatal("insert behind head rejected during forward phase")
	}
	got := popOrder(s)
	want := []int{10, 15, 20, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSweepInsertReversePhase(t *testing.T) {
	// Every position is below the head: a reverse-only sweep.
	s := newSweep([]*Request{req(1, 30), req(2, 10)}, 40)
	// Head descending at 40: position 20 is still ahead (below).
	if !s.Insert(req(3, 20), 40) {
		t.Fatal("reverse-phase insert below head rejected")
	}
	// Position 50 is above a descending head: passed, must be rejected.
	if s.Insert(req(4, 50), 40) {
		t.Fatal("reverse-phase insert above head accepted")
	}
	got := popOrder(s)
	want := []int{30, 20, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSweepInsertEmptyRejected(t *testing.T) {
	s := &Sweep{}
	if s.Insert(req(1, 5), 0) {
		t.Error("insert into empty sweep should be rejected (no sweep to join)")
	}
}

func TestSweepPeekAndMaxPos(t *testing.T) {
	s := newSweep([]*Request{req(1, 10), req(2, 4)}, 8)
	if next := s.Requests()[0].Target.Pos; next != 10 {
		t.Errorf("next request at %d, want 10", next)
	}
	if s.MaxPos() != 10 {
		t.Errorf("MaxPos = %d, want 10", s.MaxPos())
	}
	s.Pop()
	if s.MaxPos() != 4 {
		t.Errorf("MaxPos after pop = %d, want 4", s.MaxPos())
	}
	s.Pop()
	if s.MaxPos() != -1 || len(s.Requests()) != 0 || s.Pop() != nil {
		t.Error("empty sweep should report MaxPos -1, no requests and a nil Pop")
	}
}

// Property: a sweep built from random requests pops every request exactly
// once, in an order that is one forward (ascending) run followed by one
// reverse (descending) run.
func TestSweepSinglePassProperty(t *testing.T) {
	f := func(seed int64, n uint8, headRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n)%40 + 1
		head := int(headRaw) % 100
		reqs := make([]*Request, count)
		for i := range reqs {
			reqs[i] = req(int64(i), rng.Intn(100))
		}
		s := newSweep(reqs, head)
		if s.Len() != count {
			return false
		}
		order := popOrder(s)
		if len(order) != count {
			return false
		}
		// Split at the first descent below head; forward run ascending and
		// >= head, reverse run descending and < head.
		i := 0
		for i < len(order) && order[i] >= head {
			if i > 0 && order[i] < order[i-1] && order[i-1] >= head {
				// still forward region; ascending required
				return false
			}
			i++
		}
		for j := i + 1; j < len(order); j++ {
			if order[j] > order[j-1] || order[j] >= head {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: dynamic insertion never duplicates or loses requests and keeps
// phase ordering intact.
func TestSweepInsertProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		head := rng.Intn(50)
		var reqs []*Request
		for i := 0; i < 10; i++ {
			reqs = append(reqs, req(int64(i), rng.Intn(100)))
		}
		s := newSweep(reqs, head)
		inserted := 0
		for i := 0; i < 10; i++ {
			if s.Insert(req(int64(100+i), rng.Intn(100)), head) {
				inserted++
			}
		}
		total := s.Len()
		if total != 10+inserted {
			return false
		}
		// Forward ascending, reverse descending.
		fwd, rev := phases(s)
		for i := 1; i < len(fwd); i++ {
			if fwd[i].Target.Pos < fwd[i-1].Target.Pos {
				return false
			}
		}
		for i := 1; i < len(rev); i++ {
			if rev[i].Target.Pos > rev[i-1].Target.Pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A pooled sweep keeps the array its inserts grew, so a steady cycle of
// build, insert into both phases, drain and release allocates nothing.
func TestReleasedSweepKeepsGrownStorage(t *testing.T) {
	const head = 35
	sh := &Shared{}
	reqs := make([]*Request, 8) // 40..70 forward, 30..0 reverse
	for i := range reqs {
		reqs[i] = req(int64(i), 10*i)
	}
	extra := make([]*Request, 24) // 0..69: both sides of the head
	for i := range extra {
		extra[i] = req(int64(100+i), 3*i)
	}
	cycle := func() {
		s := sh.NewSweep(reqs, head)
		for _, r := range extra {
			if !s.Insert(r, head) {
				t.Fatalf("insert at %d declined during the forward phase", r.Target.Pos)
			}
		}
		n := 0
		for s.Pop() != nil {
			n++
		}
		if n != len(reqs)+len(extra) {
			t.Fatalf("drained %d requests, want %d", n, len(reqs)+len(extra))
		}
		sh.ReleaseSweep(s)
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("pooled sweep cycle allocates %.0f times, want 0", allocs)
	}
}

// twoPhase is the reference model of a sweep: the forward and reverse runs
// as two plain slices, built with a stable sort, inserting after equal
// positions and removing by identity.
type twoPhase struct{ fwd, rev []*Request }

func newTwoPhase(reqs []*Request, head int) *twoPhase {
	m := &twoPhase{}
	for _, r := range reqs {
		if r.Target.Pos >= head {
			m.fwd = append(m.fwd, r)
		} else {
			m.rev = append(m.rev, r)
		}
	}
	sort.SliceStable(m.fwd, func(i, j int) bool { return m.fwd[i].Target.Pos < m.fwd[j].Target.Pos })
	sort.SliceStable(m.rev, func(i, j int) bool { return m.rev[i].Target.Pos > m.rev[j].Target.Pos })
	return m
}

func (m *twoPhase) pop() *Request {
	var r *Request
	switch {
	case len(m.fwd) > 0:
		r, m.fwd = m.fwd[0], m.fwd[1:]
	case len(m.rev) > 0:
		r, m.rev = m.rev[0], m.rev[1:]
	}
	return r
}

func (m *twoPhase) insert(r *Request, head int) bool {
	pos := r.Target.Pos
	switch {
	case len(m.fwd) > 0 && pos >= head:
		i := 0
		for i < len(m.fwd) && m.fwd[i].Target.Pos <= pos {
			i++
		}
		m.fwd = slices.Insert(m.fwd, i, r)
	case len(m.fwd) > 0 || len(m.rev) > 0 && pos <= head:
		i := 0
		for i < len(m.rev) && m.rev[i].Target.Pos >= pos {
			i++
		}
		m.rev = slices.Insert(m.rev, i, r)
	default:
		return false
	}
	return true
}

func (m *twoPhase) remove(r *Request) bool {
	if i := slices.Index(m.fwd, r); i >= 0 {
		m.fwd = slices.Delete(m.fwd, i, i+1)
		return true
	}
	if i := slices.Index(m.rev, r); i >= 0 {
		m.rev = slices.Delete(m.rev, i, i+1)
		return true
	}
	return false
}

func (m *twoPhase) order() []*Request {
	return append(slices.Clone(m.fwd), m.rev...)
}

func (m *twoPhase) maxPos() int {
	max := -1
	for _, r := range m.order() {
		if r.Target.Pos > max {
			max = r.Target.Pos
		}
	}
	return max
}

// The one-slice sweep executes exactly the two-phase model's order through
// builds on both sides of the 16-request sort switch, duplicate positions,
// interleaved Pop/Insert/Remove, and sweeps reused through the pool.
func TestSweepMatchesTwoPhaseModel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sh := &Shared{}
	var id int64
	mk := func() *Request {
		id++
		return req(id, rng.Intn(30))
	}
	ids := func(rs []*Request) []int64 {
		out := make([]int64, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	for trial := 0; trial < 3000; trial++ {
		head := rng.Intn(32)
		all := make([]*Request, 1+rng.Intn(40))
		for i := range all {
			all[i] = mk()
		}
		s, m := sh.NewSweep(all, head), newTwoPhase(all, head)
		for step := 0; ; step++ {
			if got, want := ids(s.Requests()), ids(m.order()); !slices.Equal(got, want) {
				t.Fatalf("trial %d step %d: order %v, model %v", trial, step, got, want)
			}
			if got, want := s.MaxPos(), m.maxPos(); got != want {
				t.Fatalf("trial %d step %d: MaxPos %d, model %d", trial, step, got, want)
			}
			if s.Empty() || step == 60 {
				break
			}
			switch rng.Intn(3) {
			case 0:
				r, want := s.Pop(), m.pop()
				if r != want {
					t.Fatalf("trial %d step %d: Pop %d, model %d", trial, step, r.ID, want.ID)
				}
				head = r.Target.Pos + 1
			case 1:
				r := mk()
				all = append(all, r)
				if got, want := s.Insert(r, head), m.insert(r, head); got != want {
					t.Fatalf("trial %d step %d: Insert(%d, head %d) = %v, model %v",
						trial, step, r.Target.Pos, head, got, want)
				}
			default:
				// May pick a request already served or never accepted.
				r := all[rng.Intn(len(all))]
				if got, want := s.Remove(r), m.remove(r); got != want {
					t.Fatalf("trial %d step %d: Remove(%d) = %v, model %v", trial, step, r.ID, got, want)
				}
			}
		}
		sh.ReleaseSweep(s)
	}
}
