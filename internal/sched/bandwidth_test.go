package sched

import (
	"math/rand"
	"sort"
	"testing"

	"tapejuke/internal/tapemodel"
)

// sweepOrderInts is the plain sort-based sweep order: ascending positions
// at or above the head, then descending positions below it.
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

// Property: bandwidthBits, the fused bitmap walk the max-bandwidth policies
// score tapes with, is bit-identical to the two-step reference computation
// (sweepOrderInts into an explicit list, then EffectiveBandwidth over it)
// for random position multisets, heads, and switch situations: on the
// paper's helical profile with and without the dense cost table, and on the
// LTO-9-class serpentine profile, which has no table.
func TestBandwidthBitsMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		prof  tapemodel.Positioner
		table bool
	}{
		{"exb8505xl", tapemodel.EXB8505XL(), false},
		{"exb8505xl-table", tapemodel.EXB8505XL(), true},
		{"lto9", tapemodel.LTO9Class(), false},
	}
	for _, tc := range cases {
		cm := &CostModel{Prof: tc.prof, BlockMB: 16}
		if tc.table && !cm.EnableTable(448) {
			t.Fatalf("%s: expected the profile to be tabulable", tc.name)
		}
		rng := rand.New(rand.NewSource(11))
		var ps posSorter
		for trial := 0; trial < 300; trial++ {
			n := rng.Intn(40) // 0..39 positions, duplicates likely
			positions := make([]int, n)
			for i := range positions {
				positions[i] = rng.Intn(448)
			}
			mounted := rng.Intn(10)
			tape := rng.Intn(10)
			head := rng.Intn(449)
			startHead := head
			if tape != mounted {
				startHead = 0
			}
			order := sweepOrderInts(positions, startHead)
			want := cm.EffectiveBandwidth(mounted, head, tape, startHead, order)
			got := bandwidthBits(cm, mounted, head, tape, startHead, positions, &ps)
			if got != want {
				t.Fatalf("%s trial %d: bandwidthBits = %v, reference = %v (positions %v, mounted %d, tape %d, head %d)",
					tc.name, trial, got, want, positions, mounted, tape, head)
			}
		}
	}
}
