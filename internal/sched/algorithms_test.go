package sched

import (
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// fixture builds a scheduling state over a small jukebox. Each block's
// placement is known: with 4 tapes, 20 blocks/tape, PH=20 and NR as given.
func fixture(t *testing.T, nr int, kind layout.Kind) *State {
	t.Helper()
	l, err := layout.Build(layout.Config{
		Tapes: 4, TapeCapBlocks: 20, HotPercent: 20,
		Replicas: nr, Kind: kind, StartPos: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewState(l, &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16})
}

// selectTape runs a fresh Selector over every copy on every tape: the
// choice the static and dynamic algorithms make.
func selectTape(st *State, p Policy) (int, bool) {
	var s Selector
	return s.pick(st, p, nil)
}

// addReq appends a pending request for block b arriving at time at.
func addReq(st *State, id int64, b layout.BlockID, at float64) *Request {
	r := &Request{ID: id, Block: b, Arrival: at}
	st.Pending = append(st.Pending, r)
	return r
}

// coldOn returns some cold block whose single copy is on the given tape.
func coldOn(t *testing.T, st *State, tape int) layout.BlockID {
	t.Helper()
	for b := st.Layout.NumHot(); b < st.Layout.NumBlocks(); b++ {
		if st.Layout.Replicas(layout.BlockID(b))[0].Tape == tape {
			return layout.BlockID(b)
		}
	}
	t.Fatalf("no cold block on tape %d", tape)
	return 0
}

func TestFIFOServesInArrivalOrder(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	f := NewFIFO()
	b0 := coldOn(t, st, 2)
	b1 := coldOn(t, st, 1)
	addReq(st, 1, b0, 0)
	addReq(st, 2, b1, 1)

	tape, sweep, ok := f.Reschedule(st)
	if !ok || tape != 2 || sweep.Len() != 1 {
		t.Fatalf("first reschedule: tape=%d len=%d ok=%v", tape, sweep.Len(), ok)
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != 2 {
		t.Fatal("FIFO should consume exactly the oldest request")
	}
	if f.OnArrival(st, &Request{}) {
		t.Error("FIFO OnArrival must always defer")
	}
}

func TestFIFOPrefersMountedReplica(t *testing.T) {
	st := fixture(t, 3, layout.Horizontal)
	f := NewFIFO()
	// Block 0 is hot and fully replicated across the 4 tapes.
	addReq(st, 1, 0, 0)
	st.Mounted = 3
	tape, _, ok := f.Reschedule(st)
	if !ok || tape != 3 {
		t.Errorf("FIFO chose tape %d, want mounted tape 3", tape)
	}
}

func TestStaticMaxRequests(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	s := NewStatic(MaxRequests)
	if s.Name() != "static-max-requests" {
		t.Errorf("Name = %q", s.Name())
	}
	// Two requests on tape 1, one on tape 2.
	addReq(st, 1, coldOn(t, st, 2), 0)
	addReq(st, 2, coldOn(t, st, 1), 1)
	b := coldOn(t, st, 1)
	addReq(st, 3, b+4, 2) // another block on tape 1 (cold round-robin stride is Tapes)

	tape, sweep, ok := s.Reschedule(st)
	if !ok {
		t.Fatal("reschedule failed")
	}
	if tape != 1 {
		t.Fatalf("chose tape %d, want 1 (2 requests vs 1)", tape)
	}
	if sweep.Len() != 2 {
		t.Fatalf("sweep has %d requests, want 2", sweep.Len())
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != 1 {
		t.Fatal("pending should retain only the tape-2 request")
	}
	if s.OnArrival(st, &Request{}) {
		t.Error("static OnArrival must always defer")
	}
}

func TestStaticRoundRobinSkipsMounted(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	s := NewStatic(RoundRobin)
	st.Mounted = 1
	addReq(st, 1, coldOn(t, st, 1), 0)
	addReq(st, 2, coldOn(t, st, 3), 1)
	// Round robin starts after the mounted tape: 2, 3, 0, then 1.
	tape, _, ok := s.Reschedule(st)
	if !ok || tape != 3 {
		t.Errorf("round robin chose tape %d, want 3", tape)
	}
}

func TestStaticRoundRobinFallsBackToMounted(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	s := NewStatic(RoundRobin)
	st.Mounted = 1
	addReq(st, 1, coldOn(t, st, 1), 0)
	tape, _, ok := s.Reschedule(st)
	if !ok || tape != 1 {
		t.Errorf("round robin chose tape %d, want mounted 1 (only candidate)", tape)
	}
}

func TestStaticMaxBandwidthPrefersMountedTies(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	s := NewStatic(MaxBandwidth)
	st.Mounted = 2
	st.Head = 0
	// One request each on tapes 2 and 3 at comparable positions; the
	// mounted tape avoids the 81 s switch, so it must win.
	addReq(st, 1, coldOn(t, st, 3), 0)
	addReq(st, 2, coldOn(t, st, 2), 1)
	tape, _, ok := s.Reschedule(st)
	if !ok || tape != 2 {
		t.Errorf("max bandwidth chose tape %d, want mounted 2", tape)
	}
}

func TestOldestPolicies(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	// Oldest request is on tape 3; tape 1 has more requests but cannot
	// satisfy the oldest.
	addReq(st, 1, coldOn(t, st, 3), 0)
	addReq(st, 2, coldOn(t, st, 1), 1)
	b := coldOn(t, st, 1)
	addReq(st, 3, b+4, 2)

	for _, p := range []Policy{OldestMaxRequests, OldestMaxBandwidth} {
		tape, ok := selectTape(st, p)
		if !ok || tape != 3 {
			t.Errorf("%v chose tape %d, want 3", p, tape)
		}
	}
	// Plain max-requests ignores the oldest and picks tape 1.
	if tape, _ := selectTape(st, MaxRequests); tape != 1 {
		t.Errorf("max-requests chose tape %d, want 1", tape)
	}
}

func TestOldestWithReplicationPicksBusiestCopy(t *testing.T) {
	st := fixture(t, 3, layout.Horizontal)
	// Hot block 0 is on all 4 tapes, so every tape can satisfy the oldest;
	// load tape 2 with an extra cold request to make it the max-requests
	// winner among the candidates.
	addReq(st, 1, 0, 0)
	addReq(st, 2, coldOn(t, st, 2), 1)
	tape, ok := selectTape(st, OldestMaxRequests)
	if !ok || tape != 2 {
		t.Errorf("oldest-max-requests chose tape %d, want 2", tape)
	}
}

func TestDynamicInsertsOnMountedTape(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	d := NewDynamic(MaxBandwidth)
	if d.Name() != "dynamic-max-bandwidth" {
		t.Errorf("Name = %q", d.Name())
	}
	b := coldOn(t, st, 1)
	addReq(st, 1, b, 0)
	tape, sweep, ok := d.Reschedule(st)
	if !ok || tape != 1 {
		t.Fatalf("reschedule: tape=%d ok=%v", tape, ok)
	}
	st.Mounted, st.Head, st.Active = tape, 0, sweep

	// A new request for another block on tape 1 ahead of the head is
	// inserted (cold round-robin fill places block b+4 on the same tape).
	r2 := &Request{ID: 2, Block: b + 4}
	if _, ok := st.Layout.ReplicaOn(r2.Block, 1); !ok {
		t.Fatal("fixture error: b+4 not on tape 1")
	}
	if !d.OnArrival(st, r2) {
		t.Fatal("dynamic should insert a mounted-tape request")
	}
	if st.Active.Len() != 2 {
		t.Fatalf("sweep length %d, want 2", st.Active.Len())
	}

	// A request for a block on another tape is deferred.
	r3 := &Request{ID: 3, Block: coldOn(t, st, 2)}
	if d.OnArrival(st, r3) {
		t.Error("dynamic inserted a request for an unmounted tape")
	}
}

func TestDynamicRejectsWhenIdle(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	d := NewDynamic(MaxRequests)
	if d.OnArrival(st, &Request{ID: 1, Block: 0}) {
		t.Error("OnArrival with no active sweep should defer")
	}
}

func TestRemovePending(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	a := addReq(st, 1, 0, 0)
	b := addReq(st, 2, 1, 1)
	c := addReq(st, 3, 2, 2)
	st.RemovePending([]*Request{a, c})
	if len(st.Pending) != 1 || st.Pending[0] != b {
		t.Errorf("pending after removal = %v", st.Pending)
	}
	st.RemovePending(nil)
	if len(st.Pending) != 1 {
		t.Error("RemovePending(nil) should be a no-op")
	}
}

func TestSelectTapeEmptyPending(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	for _, p := range []Policy{RoundRobin, MaxRequests, MaxBandwidth, OldestMaxRequests, OldestMaxBandwidth} {
		if _, ok := selectTape(st, p); ok {
			t.Errorf("%v selected a tape with empty pending", p)
		}
	}
	for _, s := range []Scheduler{NewFIFO(), NewStatic(MaxRequests), NewDynamic(MaxRequests)} {
		if _, _, ok := s.Reschedule(st); ok {
			t.Errorf("%s rescheduled with empty pending", s.Name())
		}
	}
}

func TestPolicyStrings(t *testing.T) {
	want := map[Policy]string{
		RoundRobin:         "round-robin",
		MaxRequests:        "max-requests",
		MaxBandwidth:       "max-bandwidth",
		OldestMaxRequests:  "oldest-max-requests",
		OldestMaxBandwidth: "oldest-max-bandwidth",
		Policy(99):         "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}
