package sched

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// TestReorderRAONearestFirst checks the RAO contract on the LTO-9-class
// serpentine profile: the reordered sweep is a permutation of the original
// requests, every step serves a request with the minimum locate time from
// the head position the previous read left behind, and the committed order
// declines incremental insertion.
func TestReorderRAONearestFirst(t *testing.T) {
	p := tapemodel.LTO9Class()
	const blockMB = 16.0
	maxPos := int(float64(p.Tracks)*p.TrackMB/blockMB) - 1
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(24)
		reqs := make([]*Request, n)
		want := make(map[*Request]bool, n)
		for i := range reqs {
			reqs[i] = req(int64(i), rng.Intn(maxPos+1))
			want[reqs[i]] = true
		}
		head := rng.Intn(maxPos + 2)
		s := newSweep(reqs, head)
		s.ReorderRAO(p, blockMB, head)

		order := s.Requests()
		if len(order) != n {
			t.Fatalf("trial %d: reorder kept %d of %d requests", trial, len(order), n)
		}
		for _, r := range order {
			if !want[r] {
				t.Fatalf("trial %d: request %d not from the original sweep (or duplicated)", trial, r.ID)
			}
			delete(want, r)
		}

		// Nearest-first: each served request minimizes the locate time from
		// the current head over everything still unserved.
		cur := float64(head) * blockMB
		for i, r := range order {
			sec, _ := p.Locate(cur, float64(r.Target.Pos)*blockMB)
			for _, later := range order[i+1:] {
				lsec, _ := p.Locate(cur, float64(later.Target.Pos)*blockMB)
				if lsec < sec {
					t.Fatalf("trial %d step %d: served pos %d (%.2f s) over nearer pos %d (%.2f s)",
						trial, i, r.Target.Pos, sec, later.Target.Pos, lsec)
				}
			}
			cur = float64(r.Target.Pos+1) * blockMB
		}

		// The committed order is frozen: arrivals go to pending instead.
		late := &Request{ID: 999, Target: layout.Replica{Tape: 0, Pos: maxPos / 2}}
		if s.Insert(late, head) {
			t.Fatalf("trial %d: Insert accepted into a committed RAO order", trial)
		}

		// The order drains through Pop like any sweep.
		for i := 0; !s.Empty(); i++ {
			if got := s.Pop(); got != order[i] {
				t.Fatalf("trial %d: Pop()[%d] = %d, want %d", trial, i, got.ID, order[i].ID)
			}
		}
	}
}
