package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// refSelect is the brute-force tape choice the Selector must reproduce. It
// visits every tape and, for each, every copy of every pending request:
// a tape's set is the pending requests, in arrival order, with a readable
// copy there within reach. The candidates are the available tapes with a
// non-empty set (for the oldest-request policies, the available tapes
// whose set holds the oldest request); aging keeps the candidates holding
// a request in the urgency window when any does. Round-robin takes the
// first candidate after the mounted tape. The other policies score every
// candidate -- set size, or EffectiveBandwidth over the set's positions in
// sweepOrderInts order -- in jukebox order from the mounted tape, keeping
// the first strictly best.
func refSelect(st *State, p Policy, reach []int) (tape int, set []*Request, pos []int, ok bool) {
	n := st.Layout.Tapes()
	sets := make([][]*Request, n)
	poss := make([][]int, n)
	for t := 0; t < n; t++ {
		for _, r := range st.Pending {
			for _, c := range st.Layout.Replicas(r.Block) {
				if c.Tape == t && (reach == nil || c.Pos < reach[t]) && st.CopyOK(c) {
					sets[t] = append(sets[t], r)
					poss[t] = append(poss[t], c.Pos)
				}
			}
		}
	}
	oldest := p == OldestMaxRequests || p == OldestMaxBandwidth
	cand := make([]bool, n)
	for t := range cand {
		if oldest {
			cand[t] = st.Available(t) && len(st.Pending) > 0 && slices.Contains(sets[t], st.Pending[0])
		} else {
			cand[t] = st.Available(t) && len(sets[t]) > 0
		}
	}
	if st.AgeWeight > 0 {
		urg := make([]float64, n)
		maxU := 0.0
		for t := range sets {
			for _, r := range sets[t] {
				urg[t] = max(urg[t], st.Urgency(r))
			}
			maxU = max(maxU, urg[t])
		}
		cut := maxU * st.AgeWeight / (1 + st.AgeWeight)
		narrowed := make([]bool, n)
		inWindow := false
		for t := range cand {
			narrowed[t] = cand[t] && urg[t] >= cut
			inWindow = inWindow || narrowed[t]
		}
		if inWindow {
			cand = narrowed
		}
	}
	best := -1
	if p == RoundRobin {
		for i := 1; i <= n && best < 0; i++ {
			if t := (st.Mounted + i + n) % n; cand[t] {
				best = t
			}
		}
	} else {
		t0 := max(st.Mounted, 0)
		bestScore := -1.0
		for i := 0; i < n; i++ {
			t := (t0 + i) % n
			if !cand[t] {
				continue
			}
			score := float64(len(sets[t]))
			if p == MaxBandwidth || p == OldestMaxBandwidth {
				head := st.StartHead(t)
				score = st.Costs.EffectiveBandwidth(st.Mounted, st.Head, t, head, sweepOrderInts(poss[t], head))
			}
			if score > bestScore {
				best, bestScore = t, score
			}
		}
	}
	if best < 0 {
		return 0, nil, nil, false
	}
	return best, sets[best], poss[best], true
}

// Shapes of a random selection state; randomSelectState draws a policy
// and everything else from its generator.
const (
	shapeManyTapes = 1 << iota // 65-130 tapes (two or three set words) instead of 2-10
	shapeLongQueue             // up to 140 pending requests instead of 1-5
	shapeBusy                  // a Busy mask
	shapeDown                  // a Down mask
	shapeDead                  // a DeadCopy table
	shapeAging                 // aging on, some requests with deadlines
	shapeReach                 // a random per-tape reach instead of nil
	shapeTable                 // the dense cost table over the whole tape
)

// randomSelectState builds a scheduling state over a random hand-placed
// layout -- each block on one to four distinct tapes -- with the masks,
// aging and reach that shape asks for, and draws the policy.
func randomSelectState(t testing.TB, rng *rand.Rand, shape uint8) (*State, Policy, []int) {
	t.Helper()
	tapes := 2 + rng.Intn(9)
	if shape&shapeManyTapes != 0 {
		tapes = 65 + rng.Intn(66)
	}
	capBlocks := 16 + rng.Intn(480)
	blocks := 1 + rng.Intn(min(3*tapes, 200))
	used := make(map[layout.Replica]bool)
	copies := make([][]layout.Replica, blocks)
	for b := range copies {
		for _, tp := range rng.Perm(tapes)[:1+rng.Intn(min(tapes, 4))] {
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
	st := NewState(l, &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16})
	if shape&shapeTable != 0 && !st.Costs.EnableTable(capBlocks) {
		t.Fatal("the paper's profile on 16-MB blocks should be tabulable")
	}
	if rng.Intn(4) > 0 {
		st.Mounted, st.Head = rng.Intn(tapes), rng.Intn(capBlocks+1)
	} else {
		st.Mounted = -1
	}
	n := 1 + rng.Intn(5)
	if shape&shapeLongQueue != 0 {
		n = 1 + rng.Intn(140)
	}
	now := 0.0
	for i := 0; i < n; i++ {
		now += rng.ExpFloat64() * 50
		r := &Request{ID: int64(i), Block: layout.BlockID(rng.Intn(blocks)), Arrival: now}
		if shape&shapeAging != 0 && rng.Intn(2) == 0 {
			r.Deadline = now + 10 + rng.Float64()*2000
		}
		st.Pending = append(st.Pending, r)
	}
	st.Now = now + rng.Float64()*500
	if shape&shapeAging != 0 {
		st.AgeWeight = 0.25 + rng.Float64()*3
	}
	mask := func() []bool {
		m := make([]bool, tapes)
		for tp := range m {
			m[tp] = rng.Intn(3) == 0
		}
		return m
	}
	if shape&shapeBusy != 0 {
		st.Busy = mask()
	}
	if shape&shapeDown != 0 {
		st.Down = mask()
	}
	if shape&shapeDead != 0 {
		dead := layout.NewPosSet(tapes, capBlocks)
		for c := range used {
			if rng.Intn(4) == 0 {
				dead.Add(c.Tape, c.Pos)
			}
		}
		st.DeadCopy = &dead
	}
	var reach []int
	if shape&shapeReach != 0 {
		reach = make([]int, tapes)
		for tp := range reach {
			reach[tp] = rng.Intn(capBlocks + 2)
		}
	}
	return st, Policy(rng.Intn(5)), reach
}

// checkSelector runs up to three reschedules of s over st and compares each
// with refSelect on the same pending list: the chosen tape, the sweep's
// order and targets, and the pending requests left behind.
func checkSelector(t *testing.T, s *Selector, st *State, p Policy, reach []int) {
	t.Helper()
	for round := 0; round < 3; round++ {
		wantTape, set, pos, wantOK := refSelect(st, p, reach)
		var wantPending []*Request
		for _, r := range st.Pending {
			if !slices.Contains(set, r) {
				wantPending = append(wantPending, r)
			}
		}
		tape, sweep, ok := s.Reschedule(st, p, reach)
		if ok != wantOK || ok && tape != wantTape {
			t.Fatalf("round %d, %v: Reschedule = tape %d ok %v, reference tape %d ok %v", round, p, tape, ok, wantTape, wantOK)
		}
		if !ok {
			return
		}
		// The sweep serves the set in sweepOrderInts order from the start
		// head, ties in arrival order.
		head := st.StartHead(tape)
		order := make([]int, len(set))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			pa, pb := pos[order[a]], pos[order[b]]
			if (pa >= head) != (pb >= head) {
				return pa >= head
			}
			if pa >= head {
				return pa < pb
			}
			return pa > pb
		})
		got := sweep.Requests()
		if len(got) != len(set) {
			t.Fatalf("round %d, %v: sweep holds %d requests, reference %d", round, p, len(got), len(set))
		}
		for i, k := range order {
			want := layout.Replica{Tape: tape, Pos: pos[k]}
			if got[i] != set[k] || got[i].Target != want {
				t.Fatalf("round %d, %v: sweep[%d] = request %d at %+v, reference request %d at %+v",
					round, p, i, got[i].ID, got[i].Target, set[k].ID, want)
			}
		}
		if !slices.Equal(st.Pending, wantPending) {
			t.Fatalf("round %d, %v: %d requests left pending, reference %d", round, p, len(st.Pending), len(wantPending))
		}
		st.ReleaseSweep(sweep)
		if len(st.Pending) == 0 {
			return
		}
	}
}

// Property: the Selector, which visits only the tapes holding a pending
// copy, chooses, orders and extracts exactly what the brute-force
// reference does, over random states of every shape: few and many tapes
// (so sets span two or three words and jukebox order wraps across a word
// boundary), short and long queues, empty and mounted drives, every mask,
// aging on and off, every policy, with and without a reach, and with and
// without the dense cost table (the selector walks it inline, the
// reference evaluates each cost through the model). One Selector serves
// every state, so rows a larger previous state left behind are exercised.
func TestSelectorMatchesReference(t *testing.T) {
	var s Selector
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 1500; trial++ {
		st, p, reach := randomSelectState(t, rng, uint8(rng.Intn(256)))
		checkSelector(t, &s, st, p, reach)
	}
}

// FuzzSelectorMatchesReference is TestSelectorMatchesReference driven by a
// fuzzed generator seed and shape; each input runs two states through one
// Selector.
func FuzzSelectorMatchesReference(f *testing.F) {
	for i := int64(0); i < 8; i++ {
		f.Add(i, uint8(i*37))
	}
	f.Add(int64(99), uint8(shapeManyTapes|shapeLongQueue|shapeAging|shapeReach))
	f.Add(int64(100), uint8(shapeLongQueue|shapeReach|shapeTable))
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		var s Selector
		for k := 0; k < 2; k++ {
			st, p, reach := randomSelectState(t, rng, shape^uint8(k*shapeManyTapes))
			checkSelector(t, &s, st, p, reach)
		}
	})
}
