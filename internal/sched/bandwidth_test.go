package sched

import (
	"math/rand"
	"slices"
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

// Property: bandwidthBits, the fused walk the max-bandwidth policies score
// tapes with, is bit-identical to the two-step reference computation
// (sweepOrderInts into an explicit list, then EffectiveBandwidth over it)
// for random position multisets of 0-40 positions with duplicates, on
// both sides of smallSort (the insertion path below it, the bitmap path
// from it on), with the start head at 0, on a position, past the highest
// one, or anywhere, and in random switch situations: on the paper's
// helical profile with and without the dense cost table, and on the
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
		var insertion, bitmap int
		for trial := 0; trial < 600; trial++ {
			n := rng.Intn(41) // 0..40 positions
			span := 1 + rng.Intn(448)
			positions := make([]int, n)
			for i := range positions {
				positions[i] = rng.Intn(span) // a short span forces duplicates
			}
			mounted := rng.Intn(10)
			tape := rng.Intn(10)
			head := rng.Intn(449)
			switch {
			case trial%4 == 0:
				head = 0
			case trial%4 == 1 && n > 0:
				head = positions[rng.Intn(n)]
			case trial%4 == 2:
				head = slices.Max(append([]int{-1}, positions...)) + 1 + rng.Intn(3)
			}
			startHead := head
			if tape != mounted && trial%3 > 0 {
				startHead = 0
			} else {
				tape = mounted
			}
			if n < smallSort {
				insertion++
			} else {
				bitmap++
			}
			order := sweepOrderInts(positions, startHead)
			want := cm.EffectiveBandwidth(mounted, head, tape, startHead, order)
			got := bandwidthBits(cm, mounted, head, tape, startHead, positions, &ps)
			if got != want {
				t.Fatalf("%s trial %d: bandwidthBits = %v, reference = %v (positions %v, mounted %d, tape %d, head %d)",
					tc.name, trial, got, want, positions, mounted, tape, head)
			}
		}
		if insertion < 100 || bitmap < 100 {
			t.Errorf("%s: %d trials took the insertion path and %d the bitmap path, want at least 100 each", tc.name, insertion, bitmap)
		}
	}
}
