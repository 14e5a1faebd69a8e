package core

import (
	"sort"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// computeUpperEnvelope runs the envelope-extension construction over the
// pending list and returns the per-tape upper envelope, discarding the
// request assignments made along the way.
func computeUpperEnvelope(st *sched.State) []int {
	return buildEnvelope(st).env
}

// buildEnvelope runs steps 1-6 on a fresh builder and returns its full
// state, including the final assignments.
func buildEnvelope(st *sched.State) *builder {
	b := &builder{}
	b.reset(st)
	b.build()
	return b
}

// buildWithS1 runs steps 1-6 on b over st like build, and returns a copy of
// the schedule S1 as it stood at the end of step 2: the baseline of the
// Theorem 2 bound on the extension cost C(S2) - C(S1).
func buildWithS1(b *builder, st *sched.State) []layout.Replica {
	b.reset(st)
	b.initialEnvelope() // step 1
	b.absorb()          // step 2
	s1 := append([]layout.Replica(nil), b.where...)
	b.extendAll() // steps 3-6
	return s1
}

// sweepOrderInts arranges positions into sweep execution order from the
// given head: ascending positions at or above the head, then descending
// positions below it.
func sweepOrderInts(positions []int, head int) []int {
	var fwd, rev []int
	for _, p := range positions {
		if p >= head {
			fwd = append(fwd, p)
		} else {
			rev = append(rev, p)
		}
	}
	sort.Ints(fwd)
	sort.Sort(sort.Reverse(sort.IntSlice(rev)))
	return append(fwd, rev...)
}
