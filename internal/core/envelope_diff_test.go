package core

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// Differential test: the optimized incremental builder (envelope.go) must
// produce bit-identical envelopes, assignments, and S1 snapshots to the
// retained naive reference (envelope_ref_test.go) over randomized layouts,
// replication degrees, and queue lengths. Every case is derived from a
// logged seed so failures reproduce.

// diffCompare runs both builders over st and reports the first mismatch.
// The optimized run goes through the shared reusable builder to also cover
// the reset path that Envelope.Reschedule exercises.
func diffCompare(t *testing.T, seed int64, st *sched.State, reused *builder) {
	t.Helper()
	ref := refBuildEnvelope(st)
	reused.reset(st)
	reused.build()
	opt := reused

	for tape := range ref.env {
		if opt.env[tape] != ref.env[tape] {
			t.Fatalf("seed %d: env[%d] = %d, reference %d (env opt=%v ref=%v)",
				seed, tape, opt.env[tape], ref.env[tape], opt.env, ref.env)
		}
	}
	for i := range ref.where {
		if opt.where[i] != ref.where[i] {
			t.Fatalf("seed %d: where[%d] = %v, reference %v (block %d)",
				seed, i, opt.where[i], ref.where[i], st.Pending[i].Block)
		}
	}
	for i := range ref.s1Where {
		if opt.s1Where[i] != ref.s1Where[i] {
			t.Fatalf("seed %d: s1Where[%d] = %v, reference %v",
				seed, i, opt.s1Where[i], ref.s1Where[i])
		}
	}
	for tape := range ref.count {
		if opt.count[tape] != ref.count[tape] {
			t.Fatalf("seed %d: count[%d] = %d, reference %d",
				seed, tape, opt.count[tape], ref.count[tape])
		}
	}
}

// randomManualState builds a scheduling state over a fully random manual
// layout: arbitrary replica placements, duplicate requests allowed.
func randomManualState(t *testing.T, rng *rand.Rand) *sched.State {
	t.Helper()
	tapes := 1 + rng.Intn(6)
	blocks := 1 + rng.Intn(30)
	// Every block could land on the same tape, so keep per-tape capacity
	// comfortably above the block count or the placement loop cannot finish.
	capBlocks := blocks + 20 + rng.Intn(200)
	used := make(map[layout.Replica]bool)
	copies := make([][]layout.Replica, blocks)
	for b := range copies {
		n := 1 + rng.Intn(tapes)
		for _, tp := range rng.Perm(tapes)[:n] {
			for {
				c := layout.Replica{Tape: tp, Pos: rng.Intn(capBlocks)}
				if !used[c] {
					used[c] = true
					copies[b] = append(copies[b], c)
					break
				}
			}
		}
	}
	l, err := layout.NewManual(tapes, capBlocks, 0, copies)
	if err != nil {
		t.Fatal(err)
	}
	mounted := rng.Intn(tapes+1) - 1 // -1 .. tapes-1
	head := 0
	if mounted >= 0 {
		head = rng.Intn(capBlocks + 1)
	}
	st := sched.NewState(l, costs())
	st.Mounted, st.Head = mounted, head
	n := 1 + rng.Intn(40)
	for i := 0; i < n; i++ {
		st.Pending = append(st.Pending, &sched.Request{
			ID: int64(i), Block: layout.BlockID(rng.Intn(blocks)),
		})
	}
	return st
}

// randomBuiltState builds a scheduling state over the paper's layout space
// (vertical/horizontal, varying replication and start position).
func randomBuiltState(t *testing.T, rng *rand.Rand) *sched.State {
	t.Helper()
	var l *layout.Layout
	var tapes int
	for l == nil {
		kind := layout.Horizontal
		if rng.Intn(2) == 0 {
			kind = layout.Vertical
		}
		tapes = 2 + rng.Intn(9)
		built, err := layout.Build(layout.Config{
			Tapes: tapes, TapeCapBlocks: 100 + rng.Intn(349),
			HotPercent: float64(rng.Intn(30)),
			Replicas:   rng.Intn(tapes), Kind: kind,
			StartPos: rng.Float64(),
		})
		if err != nil {
			continue // e.g. vertical hot region exceeding one tape; redraw
		}
		l = built
	}
	mounted := rng.Intn(tapes+1) - 1
	head := 0
	if mounted >= 0 {
		head = rng.Intn(l.TapeCap() + 1)
	}
	st := sched.NewState(l, costs())
	st.Mounted, st.Head = mounted, head
	n := 1 + rng.Intn(140)
	for i := 0; i < n; i++ {
		st.Pending = append(st.Pending, &sched.Request{
			ID: int64(i), Block: layout.BlockID(rng.Intn(l.NumBlocks())),
		})
	}
	return st
}

func TestEnvelopeDifferentialManual(t *testing.T) {
	reused := &builder{}
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomManualState(t, rng)
		diffCompare(t, seed, st, reused)
	}
}

func TestEnvelopeDifferentialBuilt(t *testing.T) {
	reused := &builder{}
	for seed := int64(1000); seed < 1500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomBuiltState(t, rng)
		diffCompare(t, seed, st, reused)
	}
}

// The fresh-builder entry point used by tests and instrumentation must
// agree with the reused path.
func TestEnvelopeDifferentialFreshBuilder(t *testing.T) {
	for seed := int64(2000); seed < 2100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomManualState(t, rng)
		ref := refBuildEnvelope(st)
		opt := buildEnvelope(st)
		for tape := range ref.env {
			if opt.env[tape] != ref.env[tape] {
				t.Fatalf("seed %d: env[%d] = %d, reference %d",
					seed, tape, opt.env[tape], ref.env[tape])
			}
		}
		for i := range ref.where {
			if opt.where[i] != ref.where[i] {
				t.Fatalf("seed %d: where[%d] = %v, reference %v",
					seed, i, opt.where[i], ref.where[i])
			}
		}
	}
}
