package core

import (
	"math"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
	"tapejuke/internal/tapemodel"
)

func costs() *sched.CostModel {
	return &sched.CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16}
}

func stateFor(t *testing.T, l *layout.Layout, mounted, head int) *sched.State {
	t.Helper()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	st := sched.NewState(l, costs())
	st.Mounted, st.Head = mounted, head
	return st
}

func addReq(st *sched.State, id int64, b layout.BlockID) *sched.Request {
	r := &sched.Request{ID: id, Block: b}
	st.Pending = append(st.Pending, r)
	return r
}

// TestFigure2Example reproduces the paper's Figure 2: blocks A and B on tape
// 1 near the beginning, C on tape 0, and D replicated immediately after C on
// tape 0 and at the far end of tape 1. With the head at the beginning of
// tape 1, the simple greedy algorithms would traverse all of tape 1 to fetch
// D; the envelope algorithm must instead extend tape 0's envelope from C to
// the adjacent copy of D.
func TestFigure2Example(t *testing.T) {
	// Block 0 = A (tape 1 pos 0), 1 = B (tape 1 pos 2),
	// 2 = C (tape 0 pos 5), 3 = D (tape 0 pos 6; tape 1 pos 440).
	l, err := layout.NewManual(2, 448, 0, [][]layout.Replica{
		{{Tape: 1, Pos: 0}},
		{{Tape: 1, Pos: 2}},
		{{Tape: 0, Pos: 5}},
		{{Tape: 0, Pos: 6}, {Tape: 1, Pos: 440}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stateFor(t, l, 1, 0)
	for i := 0; i < 4; i++ {
		addReq(st, int64(i), layout.BlockID(i))
	}
	env := computeUpperEnvelope(st)
	// Tape 1's envelope covers only B (position 2 -> boundary 3): D must
	// not drag it to the end of the tape.
	if env[1] != 3 {
		t.Errorf("env[1] = %d, want 3 (through B only)", env[1])
	}
	// Tape 0's envelope is extended from C (boundary 6) through D's copy at
	// position 6 (boundary 7).
	if env[0] != 7 {
		t.Errorf("env[0] = %d, want 7 (C extended through D)", env[0])
	}
}

// TestEnvelopeDegeneratesWithoutReplication: with no replicated blocks, the
// upper envelope is exactly the per-tape highest request boundary.
func TestEnvelopeDegeneratesWithoutReplication(t *testing.T) {
	l, err := layout.NewManual(3, 100, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 7}},
		{{Tape: 0, Pos: 3}},
		{{Tape: 1, Pos: 50}},
		{{Tape: 2, Pos: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stateFor(t, l, -1, 0)
	for i := 0; i < 4; i++ {
		addReq(st, int64(i), layout.BlockID(i))
	}
	env := computeUpperEnvelope(st)
	want := []int{8, 51, 1}
	for tape, w := range want {
		if env[tape] != w {
			t.Errorf("env[%d] = %d, want %d", tape, env[tape], w)
		}
	}
}

// TestEnvelopeShrink constructs the situation of step 5: the mounted tape's
// cheap copy of R wins the first extension, then a later extension of tape 1
// encloses R's other copy, so tape 0's envelope must shrink back (here to
// zero: tape 0 drops out of the schedule entirely).
func TestEnvelopeShrink(t *testing.T) {
	// R: tape 0 pos 1 (cheap, mounted) and tape 1 pos 9.
	// S: tape 1 pos 20, tape 0 pos 150. T: tape 1 pos 21, tape 0 pos 151.
	l, err := layout.NewManual(2, 448, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 1}, {Tape: 1, Pos: 9}},
		{{Tape: 1, Pos: 20}, {Tape: 0, Pos: 150}},
		{{Tape: 1, Pos: 21}, {Tape: 0, Pos: 151}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stateFor(t, l, 0, 0)
	for i := 0; i < 3; i++ {
		addReq(st, int64(i), layout.BlockID(i))
	}
	env := computeUpperEnvelope(st)
	if env[0] != 0 {
		t.Errorf("env[0] = %d, want 0 (shrunk away after R relocated)", env[0])
	}
	if env[1] != 22 {
		t.Errorf("env[1] = %d, want 22 (through T at 21)", env[1])
	}
}

// TestEnvelopeCoversAllRequests: whatever the inputs, every pending request
// must have at least one copy inside the upper envelope.
func TestEnvelopeCoversAllRequests(t *testing.T) {
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10,
		Replicas: 9, Kind: layout.Vertical, StartPos: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := stateFor(t, l, 3, 100)
	for i := 0; i < 60; i++ {
		st.Pending = append(st.Pending, &sched.Request{
			ID:    int64(i),
			Block: layout.BlockID((i * 37) % l.NumBlocks()),
		})
	}
	env := computeUpperEnvelope(st)
	for _, r := range st.Pending {
		inside := false
		for _, c := range l.Replicas(r.Block) {
			if c.Pos+1 <= env[c.Tape] {
				inside = true
				break
			}
		}
		if !inside {
			t.Fatalf("request for block %d not covered by envelope %v", r.Block, env)
		}
	}
	// The envelope never regresses below the mounted head.
	if env[3] < 100 {
		t.Errorf("env[mounted] = %d, below the head position 100", env[3])
	}
}

func TestRescheduleExtractsWithinEnvelope(t *testing.T) {
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10,
		Replicas: 9, Kind: layout.Vertical, StartPos: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnvelope(MaxBandwidth)
	st := stateFor(t, l, -1, 0)
	for i := 0; i < 40; i++ {
		addReq(st, int64(i), layout.BlockID((i*53)%l.NumBlocks()))
	}
	before := len(st.Pending)
	tape, sweep, ok := e.Reschedule(st)
	if !ok {
		t.Fatal("reschedule failed")
	}
	if sweep.Len() == 0 {
		t.Fatal("empty sweep")
	}
	if sweep.Len()+len(st.Pending) != before {
		t.Errorf("requests lost: %d + %d != %d", sweep.Len(), len(st.Pending), before)
	}
	env := e.env
	for _, r := range sweep.Requests() {
		if r.Target.Tape != tape {
			t.Fatalf("request targeted at tape %d, sweep tape %d", r.Target.Tape, tape)
		}
		if r.Target.Pos+1 > env[tape] {
			t.Fatalf("request at %d outside envelope %d", r.Target.Pos, env[tape])
		}
	}
}

func TestRescheduleEmptyPending(t *testing.T) {
	l, _ := layout.Build(layout.Config{Tapes: 4, TapeCapBlocks: 20, HotPercent: 20})
	st := stateFor(t, l, -1, 0)
	for _, v := range []Variant{OldestRequest, MaxRequests, MaxBandwidth} {
		if _, _, ok := NewEnvelope(v).Reschedule(st); ok {
			t.Errorf("%v rescheduled with empty pending", v)
		}
	}
}

func TestVariantSelection(t *testing.T) {
	// Tape 0 holds blocks 0,1 (two requests); tape 1 holds block 2 (one
	// request, the oldest).
	l, err := layout.NewManual(2, 100, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 1}},
		{{Tape: 0, Pos: 2}},
		{{Tape: 1, Pos: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}

	newState := func() *sched.State {
		st := stateFor(t, l, -1, 0)
		addReq(st, 1, 2) // oldest: block 2 on tape 1
		addReq(st, 2, 0)
		addReq(st, 3, 1)
		return st
	}

	st := newState()
	tape, _, ok := NewEnvelope(MaxRequests).Reschedule(st)
	if !ok || tape != 0 {
		t.Errorf("max-requests envelope chose tape %d, want 0", tape)
	}

	st = newState()
	tape, sweep, ok := NewEnvelope(OldestRequest).Reschedule(st)
	if !ok || tape != 1 {
		t.Errorf("oldest-request envelope chose tape %d, want 1", tape)
	}
	if ok && sweep.Len() != 1 {
		t.Errorf("oldest-request sweep length %d, want 1", sweep.Len())
	}
}

func TestOnArrivalInsideEnvelope(t *testing.T) {
	l, err := layout.NewManual(2, 100, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 10}},
		{{Tape: 0, Pos: 5}},
		{{Tape: 1, Pos: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnvelope(MaxBandwidth)
	st := stateFor(t, l, -1, 0)
	addReq(st, 1, 0) // tape 0 pos 10 -> envelope boundary 11
	tape, sweep, ok := e.Reschedule(st)
	if !ok || tape != 0 {
		t.Fatalf("setup reschedule: tape=%d ok=%v", tape, ok)
	}
	st.Mounted, st.Head, st.Active = 0, 0, sweep

	// Block 1 (tape 0 pos 5) lies inside the envelope: inserted.
	r := &sched.Request{ID: 2, Block: 1}
	if !e.OnArrival(st, r) {
		t.Fatal("in-envelope arrival not inserted")
	}
	if st.Active.Len() != 2 {
		t.Fatalf("sweep length %d, want 2", st.Active.Len())
	}

	// Block 2 lives on tape 1 only: the single-request extension goes to
	// tape 1, so the arrival is deferred, but tape 1's envelope grows.
	r2 := &sched.Request{ID: 3, Block: 2}
	if e.OnArrival(st, r2) {
		t.Fatal("other-tape arrival inserted into mounted sweep")
	}
	if env := e.env; env[1] != 4 {
		t.Errorf("env[1] = %d, want 4 after single-request extension", env[1])
	}
}

func TestOnArrivalExtendsMountedEnvelope(t *testing.T) {
	// Block 1's only copy is far out on the mounted tape; the cheapest
	// extension is still the mounted tape, so the request joins the sweep
	// and the envelope stretches.
	l, err := layout.NewManual(2, 100, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 10}},
		{{Tape: 0, Pos: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEnvelope(MaxBandwidth)
	st := stateFor(t, l, -1, 0)
	addReq(st, 1, 0)
	_, sweep, _ := e.Reschedule(st)
	st.Mounted, st.Head, st.Active = 0, 0, sweep

	r := &sched.Request{ID: 2, Block: 1}
	if !e.OnArrival(st, r) {
		t.Fatal("mounted-tape extension arrival not inserted")
	}
	if env := e.env; env[0] != 51 {
		t.Errorf("env[0] = %d, want 51", env[0])
	}
}

func TestOnArrivalIdleDefers(t *testing.T) {
	l, _ := layout.Build(layout.Config{Tapes: 4, TapeCapBlocks: 20, HotPercent: 20})
	e := NewEnvelope(MaxBandwidth)
	st := stateFor(t, l, -1, 0)
	if e.OnArrival(st, &sched.Request{ID: 1, Block: 0}) {
		t.Error("OnArrival before any reschedule should defer")
	}
}

// extensionCost reads the dense table inline when it covers the envelope
// and the block's far edge, and goes through the cost model otherwise.
// Either way every cost keeps its bits: from an empty or a partial
// envelope, on the mounted tape and on one still to be loaded, against a
// table over 200 of the tape's 448 blocks, so both paths run.
func TestExtensionCostTableBitIdentical(t *testing.T) {
	l, err := layout.NewManual(2, 448, 0, [][]layout.Replica{{{Tape: 0, Pos: 0}}})
	if err != nil {
		t.Fatal(err)
	}
	plain, tabled := stateFor(t, l, 0, 0), stateFor(t, l, 0, 0)
	if !tabled.Costs.EnableTable(200) {
		t.Fatal("the paper's profile on 16-MB blocks should be tabulable")
	}
	for env := 0; env <= 448; env += 7 {
		for pos := env % 5; pos < 448; pos += 5 {
			for tape := 0; tape < 2; tape++ {
				want := extensionCost(plain, env, tape, pos)
				if got := extensionCost(tabled, env, tape, pos); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("env %d, tape %d, pos %d: tabled %v, untabled %v", env, tape, pos, got, want)
				}
			}
		}
	}
}

func TestNames(t *testing.T) {
	cases := map[Variant]string{
		OldestRequest: "envelope-oldest-request",
		MaxRequests:   "envelope-max-requests",
		MaxBandwidth:  "envelope-max-bandwidth",
	}
	for v, want := range cases {
		if got := NewEnvelope(v).Name(); got != want {
			t.Errorf("Name(%v) = %q, want %q", v, got, want)
		}
	}
	if Variant(99).String() != "unknown" {
		t.Error("unknown variant string")
	}
}

func TestTheorem2Bound(t *testing.T) {
	prof := tapemodel.EXB8505XL()
	// n = 0: no unscheduled requests, bound equals the optimal extension.
	if got := Theorem2Bound(prof, 16, 0, 100); got != 0 {
		t.Errorf("bound(n=0) = %v, want 0 (H_0 = 0)", got)
	}
	// n = 1: H_1 = 1, so the bound is opt + Cd.
	cd := prof.LongForward.Startup - prof.ShortForward.Startup
	if got, want := Theorem2Bound(prof, 16, 1, 100), 100+cd; got != want {
		t.Errorf("bound(n=1) = %v, want %v", got, want)
	}
	// The harmonic factor grows like H_n.
	b10 := Theorem2Bound(prof, 16, 10, 1000)
	if b10 <= 1000 {
		t.Errorf("bound(n=10) = %v, should exceed the optimal extension", b10)
	}
	if h := stats.Harmonic(10); b10 >= h*1000+10*100 {
		t.Errorf("bound(n=10) = %v, implausibly large", b10)
	}
}
