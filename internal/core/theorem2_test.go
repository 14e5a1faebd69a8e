package core

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

// scheduleCost is the concrete cost measure C(S) used for the empirical
// Theorem 2 check: for every tape that a schedule touches, the cost of
// switching to it, sweeping forward through the assigned positions in
// order, and rewinding to the beginning. Assignments with Tape < 0
// (unscheduled requests) contribute nothing. The extended version of the
// paper defines C rigorously; this measure follows the same structure
// (switch + traversal + rewind per touched tape).
func scheduleCost(st *sched.State, where []layout.Replica) float64 {
	perTape := make([][]int, st.Layout.Tapes())
	for _, c := range where {
		if c.Tape >= 0 {
			perTape[c.Tape] = append(perTape[c.Tape], c.Pos)
		}
	}
	total := 0.0
	for t, positions := range perTape {
		if len(positions) == 0 {
			continue
		}
		order := sweepOrderInts(positions, 0)
		exec, final := st.Costs.ExecTime(0, order)
		total += st.Costs.Prof.SwitchTime() + exec + st.Costs.Prof.Rewind(st.Costs.PosMB(final))
		_ = t
	}
	return total
}

// bruteForceOpt finds the cheapest extension of S1: every request left
// unscheduled at the end of step 2 is assigned to one of its copies so that
// the total schedule cost is minimal.
func bruteForceOpt(st *sched.State, s1 []layout.Replica) float64 {
	var free []int
	for i, c := range s1 {
		if c.Tape < 0 {
			free = append(free, i)
		}
	}
	where := append([]layout.Replica(nil), s1...)
	best := -1.0
	var rec func(k int)
	rec = func(k int) {
		if k == len(free) {
			if c := scheduleCost(st, where); best < 0 || c < best {
				best = c
			}
			return
		}
		i := free[k]
		for _, c := range st.Layout.Replicas(st.Pending[i].Block) {
			where[i] = c
			rec(k + 1)
		}
		where[i].Tape = -1
	}
	rec(0)
	return best
}

// TestTheorem2BoundEmpirical checks the paper's approximation guarantee on
// random small instances: the extension cost of the envelope schedule,
// C(S2) - C(S1), stays within the harmonic-factor bound of the optimal
// extension found by brute force.
func TestTheorem2BoundEmpirical(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))

		// A small random instance: 3 tapes of 60 blocks, 8 blocks with 1-3
		// copies each at random distinct positions.
		const tapes, capBlocks, blocks = 3, 60, 8
		used := make(map[layout.Replica]bool)
		copies := make([][]layout.Replica, blocks)
		for bID := range copies {
			nCopies := 1 + rng.Intn(tapes)
			perm := rng.Perm(tapes)[:nCopies]
			for _, tp := range perm {
				for {
					c := layout.Replica{Tape: tp, Pos: rng.Intn(capBlocks)}
					if !used[c] {
						used[c] = true
						copies[bID] = append(copies[bID], c)
						break
					}
				}
			}
		}
		l, err := layout.NewManual(tapes, capBlocks, 0, copies)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		st := sched.NewState(l, costs())
		nReq := 3 + rng.Intn(4)
		for i := 0; i < nReq; i++ {
			st.Pending = append(st.Pending, &sched.Request{
				ID: int64(i), Block: layout.BlockID(rng.Intn(blocks)),
			})
		}

		b := &builder{}
		s1 := buildWithS1(b, st)
		n := 0
		for _, c := range s1 {
			if c.Tape < 0 {
				n++
			}
		}
		if n == 0 {
			continue // everything absorbed; nothing for steps 3-6 to do
		}
		c1 := scheduleCost(st, s1)
		c2 := scheduleCost(st, b.where)
		opt := bruteForceOpt(st, s1)
		if opt < c1-1e-9 {
			t.Fatalf("seed %d: optimal extension %v below C(S1) %v", seed, opt, c1)
		}
		bound := Theorem2Bound(tapemodel.EXB8505XL(), st.Costs.BlockMB, n, opt-c1)
		if c2-c1 > bound+1e-6 {
			t.Errorf("seed %d: extension cost %.3f exceeds Theorem 2 bound %.3f (n=%d, opt=%.3f)",
				seed, c2-c1, bound, n, opt-c1)
		}
	}
}
