package core

import (
	"math"
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
	s1 := buildWithS1(reused, st)
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
		if s1[i] != ref.s1Where[i] {
			t.Fatalf("seed %d: S1 where[%d] = %v, reference %v",
				seed, i, s1[i], ref.s1Where[i])
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
	return manualState(t, rng, tapes, tapes, 40)
}

// manualState builds a scheduling state over a random manual layout of the
// given tape count, each block with up to maxCopies copies on distinct
// tapes, and 1 to maxReqs pending requests (duplicates allowed).
func manualState(t *testing.T, rng *rand.Rand, tapes, maxCopies, maxReqs int) *sched.State {
	t.Helper()
	blocks := 1 + rng.Intn(30)
	// Every block could land on the same tape, so keep per-tape capacity
	// comfortably above the block count or the placement loop cannot finish.
	capBlocks := blocks + 20 + rng.Intn(200)
	used := make(map[layout.Replica]bool)
	copies := make([][]layout.Replica, blocks)
	for b := range copies {
		n := 1 + rng.Intn(maxCopies)
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
	n := 1 + rng.Intn(maxReqs)
	for i := 0; i < n; i++ {
		st.Pending = append(st.Pending, &sched.Request{
			ID: int64(i), Block: layout.BlockID(rng.Intn(blocks)),
		})
	}
	maybeTable(t, rng, st)
	return st
}

// maybeTable enables the dense cost table over the whole tape on about
// half the states: the optimized builder then walks it inline, while the
// reference evaluates each cost through the model.
func maybeTable(t *testing.T, rng *rand.Rand, st *sched.State) {
	t.Helper()
	if rng.Intn(2) == 0 && !st.Costs.EnableTable(st.Layout.TapeCap()) {
		t.Fatal("the paper's profile on 16-MB blocks should be tabulable")
	}
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
	maybeTable(t, rng, st)
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

// The short-queue regime on wide jukeboxes: a few pending requests with up
// to three copies each over 130, 3 and 70 tapes in turn. One builder
// serves every state, so a build over fewer tapes follows one over more
// and must not see the rows the larger build left behind, and a build over
// more tapes must not see stale rows beyond the smaller one.
func TestEnvelopeDifferentialWide(t *testing.T) {
	reused := &builder{}
	for seed := int64(3000); seed < 3600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tapes := []int{130, 3, 70}[seed%3]
		st := manualState(t, rng, tapes, min(tapes, 3), 5)
		diffCompare(t, seed, st, reused)
	}
}

// The step-3 scan reads the dense table inline when it covers a tape's
// list and goes through the cost model otherwise; either way every cached
// prefix bandwidth keeps its bits. The differential tests see only the
// builder's decisions, and the scan's epsilon comparison can hide a
// last-bit difference from them, so this runs an untabled and a tabled
// builder in lockstep over the same states and compares every cached
// bandwidth after each step-3 scan.
func TestRefreshTableBitIdentical(t *testing.T) {
	for seed := int64(4000); seed < 4300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := randomBuiltState(t, rng)
		var bs [2]*builder
		for k := range bs {
			c := costs()
			if k == 1 && !c.EnableTable(st.Layout.TapeCap()) {
				t.Fatal("the paper's profile on 16-MB blocks should be tabulable")
			}
			s := sched.NewState(st.Layout, c)
			s.Mounted, s.Head = st.Mounted, st.Head
			s.Pending = append(s.Pending, st.Pending...)
			bs[k] = &builder{}
			bs[k].reset(s)
			bs[k].initialEnvelope()
			bs[k].absorb()
			bs[k].initExtensions()
		}
		plain, tabled := bs[0], bs[1]
		for plain.unsched > 0 {
			tape, prefix := plain.bestExtension()
			tabled.bestExtension()
			for tp := range plain.bw {
				for j, want := range plain.bw[tp] {
					if got := tabled.bw[tp][j]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d: tape %d prefix %d: tabled bandwidth %v, untabled %v", seed, tp, j, got, want)
					}
				}
			}
			if tape < 0 {
				break
			}
			plain.extend(tape, prefix)
			plain.shrink()
			tabled.extend(tape, prefix)
			tabled.shrink()
		}
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
