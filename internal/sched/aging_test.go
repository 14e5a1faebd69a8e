package sched

import (
	"testing"

	"tapejuke/internal/layout"
)

func TestUrgency(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	st.Now = 100

	free := &Request{Arrival: 40} // no deadline: urgency is plain age
	if u := st.Urgency(free); u != 60 {
		t.Errorf("deadline-free urgency = %v, want 60", u)
	}

	future := &Request{Arrival: 200} // not yet arrived: clamps to zero
	if u := st.Urgency(future); u != 0 {
		t.Errorf("future request urgency = %v, want 0", u)
	}

	// A young request one second from its deadline out-urges a much older
	// deadline-free one: age 10 scaled by TTL/slack = 10 * 11/1.
	tight := &Request{Arrival: 90, Deadline: 101}
	if u := st.Urgency(tight); u <= st.Urgency(free) {
		t.Errorf("near-deadline urgency %v not above deadline-free %v", u, st.Urgency(free))
	}

	// Loose slack discounts below plain age: age 60 * TTL 160 / slack 100.
	loose := &Request{Arrival: 40, Deadline: 200}
	if u := st.Urgency(loose); u <= 60 {
		t.Errorf("deadlined urgency %v should exceed plain age once past half its TTL", u)
	}

	// At or past the deadline the urgency is finite but enormous.
	past := &Request{Arrival: 40, Deadline: 100}
	if u := st.Urgency(past); u <= st.Urgency(tight) {
		t.Errorf("past-deadline urgency %v not above near-deadline %v", u, st.Urgency(tight))
	}
}

// TestSelectTapeZeroWeightIdentical pins the inertness bit: AgeWeight zero
// must leave every policy's choice untouched on the same state.
func TestSelectTapeZeroWeightIdentical(t *testing.T) {
	policies := []Policy{RoundRobin, MaxRequests, MaxBandwidth, OldestMaxRequests, OldestMaxBandwidth}
	for _, p := range policies {
		st := fixture(t, 0, layout.Horizontal)
		st.Now = 1000
		addReq(st, 1, coldOn(t, st, 1), 0)
		addReq(st, 2, coldOn(t, st, 2), 10)
		addReq(st, 3, coldOn(t, st, 2), 20)
		base, ok := selectTape(st, p)
		if !ok {
			t.Fatalf("%v: no selection", p)
		}
		st.AgeWeight = 0
		again, ok := selectTape(st, p)
		if !ok || again != base {
			t.Errorf("%v: explicit zero weight changed the choice: %d vs %d", p, again, base)
		}
	}
}

// TestSelectTapeAgingPullsToUrgent: with a dominant weight, count- and
// bandwidth-maximizing policies abandon the popular tape for the one
// holding the near-deadline request.
func TestSelectTapeAgingPullsToUrgent(t *testing.T) {
	for _, p := range []Policy{MaxRequests, MaxBandwidth} {
		st := fixture(t, 0, layout.Horizontal)
		st.Now = 1000
		// Three requests make tape 2 the plain winner...
		addReq(st, 1, coldOn(t, st, 2), 990)
		addReq(st, 2, coldOn(t, st, 2), 990)
		addReq(st, 3, coldOn(t, st, 2), 990)
		// ...but the lone request on tape 1 is seconds from its deadline.
		urgent := addReq(st, 4, coldOn(t, st, 1), 900)
		urgent.Deadline = 1001

		if tape, ok := selectTape(st, p); !ok || tape != 2 {
			t.Fatalf("%v: unaged choice = %d, want the popular tape 2", p, tape)
		}
		st.AgeWeight = 50
		if tape, ok := selectTape(st, p); !ok || tape != 1 {
			t.Errorf("%v: aged choice = %d, want the urgent tape 1", p, tape)
		}
	}
}

// TestRoundRobinAgingSkipsAhead: aged round-robin skips tapes whose
// requests are all far from their deadlines.
func TestRoundRobinAgingSkipsAhead(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	st.Now = 1000
	addReq(st, 1, coldOn(t, st, 1), 990)
	urgent := addReq(st, 2, coldOn(t, st, 3), 900)
	urgent.Deadline = 1001

	if tape, ok := selectTape(st, RoundRobin); !ok || tape != 1 {
		t.Fatalf("unaged round-robin chose %d, want the first tape in order (1)", tape)
	}
	st.AgeWeight = 50
	if tape, ok := selectTape(st, RoundRobin); !ok || tape != 3 {
		t.Errorf("aged round-robin chose %d, want the urgent tape 3", tape)
	}
}

// TestOldestPoliciesKeepGuarantee: the oldest-request restriction survives
// aging -- when the aged set misses every tape serving the oldest request,
// the policy falls back to the oldest set rather than starving it.
func TestOldestPoliciesKeepGuarantee(t *testing.T) {
	for _, p := range []Policy{OldestMaxRequests, OldestMaxBandwidth} {
		st := fixture(t, 0, layout.Horizontal)
		st.Now = 1000
		// The oldest request sits alone on tape 3, deadline-free.
		addReq(st, 1, coldOn(t, st, 3), 0)
		// A younger near-deadline request on tape 1 dominates the urgency.
		urgent := addReq(st, 2, coldOn(t, st, 1), 999)
		urgent.Deadline = 1000.5

		st.AgeWeight = 1000
		tape, ok := selectTape(st, p)
		if !ok || tape != 3 {
			t.Errorf("%v: aged choice = %d, want 3 (oldest-request guarantee)", p, tape)
		}
	}
}

func TestSweepRemove(t *testing.T) {
	mk := func() (*Sweep, []*Request) {
		reqs := []*Request{
			{ID: 1, Target: layout.Replica{Tape: 0, Pos: 2}},
			{ID: 2, Target: layout.Replica{Tape: 0, Pos: 8}},
			{ID: 3, Target: layout.Replica{Tape: 0, Pos: 5}},
			{ID: 4, Target: layout.Replica{Tape: 0, Pos: 3}},
		}
		return newSweep(reqs, 4), reqs
	}

	s, reqs := mk()
	if !s.Remove(reqs[1]) { // forward-phase member (pos 8 >= head 4)
		t.Fatal("failed to remove a forward-phase request")
	}
	if s.Remove(reqs[1]) {
		t.Error("second removal of the same request succeeded")
	}
	var order []int64
	for s.Len() > 0 {
		order = append(order, s.Pop().ID)
	}
	want := []int64{3, 4, 1} // forward 5, then reverse 3, 2
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("post-removal order %v, want %v", order, want)
		}
	}

	s, reqs = mk()
	if !s.Remove(reqs[0]) { // reverse-phase member (pos 2 < head 4)
		t.Fatal("failed to remove a reverse-phase request")
	}
	order = order[:0]
	for s.Len() > 0 {
		order = append(order, s.Pop().ID)
	}
	want = []int64{3, 2, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("post-removal order %v, want %v", order, want)
		}
	}

	if s.Remove(&Request{ID: 99}) {
		t.Error("removing a foreign request succeeded")
	}
}
