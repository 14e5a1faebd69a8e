package core

import (
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// evictFixture: three requests on tape 0 (positions 2, 5, 9), one on tape 1.
func evictFixture(t *testing.T) *sched.State {
	t.Helper()
	l, err := layout.NewManual(3, 100, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 2}},
		{{Tape: 0, Pos: 5}},
		{{Tape: 0, Pos: 9}},
		{{Tape: 1, Pos: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return stateFor(t, l, 0, 0)
}

// TestOnEvictTightensEnvelope: cancelling the farthest scheduled request
// out of the in-flight sweep pulls the mounted tape's envelope boundary
// back to the sweep's remaining reach.
func TestOnEvictTightensEnvelope(t *testing.T) {
	st := evictFixture(t)
	for i := 0; i < 3; i++ {
		addReq(st, int64(i+1), layout.BlockID(i))
	}
	e := NewEnvelope(MaxRequests)
	tape, sweep, ok := e.Reschedule(st)
	if !ok || tape != 0 || sweep.Len() != 3 {
		t.Fatalf("reschedule: tape=%d len=%d ok=%v", tape, sweep.Len(), ok)
	}
	if e.env[0] != 10 {
		t.Fatalf("env[0] = %d, want 10 (through position 9)", e.env[0])
	}
	st.Active = sweep

	// Evict the request at position 9; the sweep now reaches only to 5.
	var victim *sched.Request
	for _, r := range sweep.Requests() {
		if r.Target.Pos == 9 {
			victim = r
		}
	}
	if victim == nil || !sweep.Remove(victim) {
		t.Fatal("could not remove the position-9 request from the sweep")
	}
	e.OnEvict(st, victim)
	if got := e.env[0]; got != 6 {
		t.Errorf("env[0] after eviction = %d, want 6 (sweep reach)", got)
	}
	// (An incremental arrival beyond the tightened boundary now pays the
	// full extension cost again instead of riding through for free; the
	// extension machinery may still choose to re-extend.)
}

// TestOnEvictIgnoresOtherTapes: evicting a request targeted at an
// unmounted tape leaves the mounted envelope alone.
func TestOnEvictIgnoresOtherTapes(t *testing.T) {
	st := evictFixture(t)
	for i := 0; i < 3; i++ {
		addReq(st, int64(i+1), layout.BlockID(i))
	}
	e := NewEnvelope(MaxRequests)
	_, sweep, ok := e.Reschedule(st)
	if !ok {
		t.Fatal("no schedule")
	}
	st.Active = sweep
	before := append([]int(nil), e.env...)
	e.OnEvict(st, &sched.Request{ID: 9, Block: 3, Target: layout.Replica{Tape: 1, Pos: 4}})
	for i, v := range e.env {
		if v != before[i] {
			t.Fatalf("envelope changed from %v to %v on a foreign eviction", before, e.env)
		}
	}
}

// TestEnvelopeAgedSelection: with a dominant aging weight the envelope's
// tape choice moves to the tape holding the near-deadline request; with
// weight zero it is untouched.
func TestEnvelopeAgedSelection(t *testing.T) {
	mk := func() *sched.State {
		st := evictFixture(t)
		st.Now = 1000
		for i := 0; i < 3; i++ {
			addReq(st, int64(i+1), layout.BlockID(i)).Arrival = 990
		}
		urgent := addReq(st, 4, layout.BlockID(3))
		urgent.Arrival, urgent.Deadline = 900, 1001
		return st
	}

	st := mk()
	if tape, _, ok := NewEnvelope(MaxRequests).Reschedule(st); !ok || tape != 0 {
		t.Fatalf("unaged envelope chose tape %d, want the popular tape 0", tape)
	}
	st = mk()
	st.AgeWeight = 50
	if tape, _, ok := NewEnvelope(MaxRequests).Reschedule(st); !ok || tape != 1 {
		t.Errorf("aged envelope chose tape %d, want the urgent tape 1", tape)
	}
}

// TestEnvelopeOldestAgedFallback: for the oldest-request variant, when the
// urgency window excludes every tape serving the oldest request, the
// restriction wins -- the system never deadlocks and never starves the
// oldest request.
func TestEnvelopeOldestAgedFallback(t *testing.T) {
	st := evictFixture(t)
	st.Now = 1000
	addReq(st, 1, layout.BlockID(0)).Arrival = 0 // oldest, tape 0, no deadline
	urgent := addReq(st, 2, layout.BlockID(3))   // young, tape 1, nearly due
	urgent.Arrival, urgent.Deadline = 999, 1000.5

	st.AgeWeight = 1000
	tape, sweep, ok := NewEnvelope(OldestRequest).Reschedule(st)
	if !ok || tape != 0 {
		t.Fatalf("aged oldest-request envelope chose tape %d, want 0 (guarantee)", tape)
	}
	if sweep.Len() != 1 || sweep.Requests()[0].ID != 1 {
		t.Errorf("sweep does not serve the oldest request: %v", sweep.Requests())
	}
}
