package core

import (
	"sort"

	"tapejuke/internal/sched"
)

// computeUpperEnvelope runs the envelope-extension construction over the
// pending list and returns the per-tape upper envelope, discarding the
// request assignments made along the way.
func computeUpperEnvelope(st *sched.State) []int {
	return buildEnvelope(st).env
}

// buildEnvelope runs steps 1-6 on a fresh builder and returns its full
// state, including the S1 snapshot and the final assignments.
func buildEnvelope(st *sched.State) *builder {
	b := &builder{}
	b.reset(st)
	b.build()
	return b
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
