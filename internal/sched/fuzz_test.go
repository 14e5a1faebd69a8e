package sched

import (
	"math"
	"testing"

	"tapejuke/internal/layout"
)

// FuzzSweepInsert drives the sweep with adversarial build/insert/pop
// interleavings and checks the single-pass invariants: forward ascending,
// reverse descending, nothing lost or duplicated, accepted insertions only
// ahead of the head. Each input runs twice through one Shared, so the
// second round rebuilds the released sweep from the pool.
func FuzzSweepInsert(f *testing.F) {
	f.Add([]byte{10, 20, 30}, []byte{5, 25, 35}, uint8(15))
	f.Add([]byte{}, []byte{1}, uint8(0))
	f.Add([]byte{200, 100, 150}, []byte{120, 180, 90}, uint8(160))
	f.Fuzz(func(t *testing.T, build []byte, insert []byte, headRaw uint8) {
		if len(build) > 64 {
			build = build[:64]
		}
		if len(insert) > 64 {
			insert = insert[:64]
		}
		var reqs []*Request
		for i, p := range build {
			reqs = append(reqs, &Request{ID: int64(i), Target: layout.Replica{Pos: int(p)}})
		}
		sh := &Shared{}
		for round := 0; round < 2; round++ {
			head := int(headRaw)
			s := sh.NewSweep(reqs, head)
			total := len(build)

			// Interleave pops and inserts.
			for i, p := range insert {
				if i%2 == 0 {
					if r := s.Pop(); r != nil {
						total--
						head = r.Target.Pos + 1
					}
				}
				r := &Request{ID: int64(1000 + i), Target: layout.Replica{Pos: int(p)}}
				if s.Insert(r, head) {
					total++
				}
			}
			if s.Len() != total {
				t.Fatalf("round %d: sweep length %d, bookkept %d", round, s.Len(), total)
			}
			fwd, rev := phases(s)
			for i := 1; i < len(fwd); i++ {
				if fwd[i].Target.Pos < fwd[i-1].Target.Pos {
					t.Fatalf("round %d: forward phase out of order", round)
				}
			}
			for i := 1; i < len(rev); i++ {
				if rev[i].Target.Pos > rev[i-1].Target.Pos {
					t.Fatalf("round %d: reverse phase out of order", round)
				}
			}
			// Draining pops everything exactly once.
			seen := make(map[int64]bool)
			for {
				r := s.Pop()
				if r == nil {
					break
				}
				if seen[r.ID] {
					t.Fatalf("round %d: request %d popped twice", round, r.ID)
				}
				seen[r.ID] = true
			}
			if len(seen) != total {
				t.Fatalf("round %d: drained %d, expected %d", round, len(seen), total)
			}
			sh.ReleaseSweep(s)
		}
	})
}

// FuzzCostModel checks that schedule costs stay finite, non-negative and
// within the streaming rate over arbitrary position sequences, and that
// the dense cost table changes no bit of them: ExecTime, EffectiveBandwidth
// and the selector's score (bandwidthBits), for the mounted tape and after
// a switch, agree bit for bit between an untabled model, one tabled over
// the whole 448-block tape, and one tabled over 128 blocks, which covers
// only some walks and must fall back for the rest.
func FuzzCostModel(f *testing.F) {
	f.Add([]byte{0, 5, 3, 10}, uint8(2))
	f.Add([]byte{200, 3, 3, 90, 0, 127, 128, 1, 64, 64, 250, 17, 17, 33, 5, 9, 140, 0}, uint8(128))
	f.Fuzz(func(t *testing.T, raw []byte, headRaw uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		plain, whole, part := testCosts(), testCosts(), testCosts()
		if !whole.EnableTable(448) || !part.EnableTable(128) {
			t.Fatal("the paper's profile on 16-MB blocks should be tabulable")
		}
		positions := make([]int, len(raw))
		for i, b := range raw {
			positions[i] = int(b)
		}
		head := int(headRaw)
		sec, final := plain.ExecTime(head, positions)
		if sec < 0 || sec != sec { // NaN check
			t.Fatalf("ExecTime = %v", sec)
		}
		if len(positions) > 0 && final != positions[len(positions)-1]+1 {
			t.Fatalf("final head %d after %v", final, positions)
		}
		bw := plain.EffectiveBandwidth(0, head, 1, 0, positions)
		if bw < 0 || bw != bw {
			t.Fatalf("bandwidth = %v", bw)
		}
		if bw > plain.Prof.StreamingRateMBps()+1e-9 {
			t.Fatalf("bandwidth %v exceeds streaming rate", bw)
		}
		var ps posSorter
		score := func(c *CostModel, tape, startHead int) float64 {
			return bandwidthBits(c, 0, head, tape, startHead, positions, &ps)
		}
		for _, c := range []*CostModel{whole, part} {
			if s, h := c.ExecTime(head, positions); math.Float64bits(s) != math.Float64bits(sec) || h != final {
				t.Fatalf("table to %d: ExecTime = %v, %d; untabled %v, %d", c.tab.Max, s, h, sec, final)
			}
			if b := c.EffectiveBandwidth(0, head, 1, 0, positions); math.Float64bits(b) != math.Float64bits(bw) {
				t.Fatalf("table to %d: EffectiveBandwidth = %v, untabled %v", c.tab.Max, b, bw)
			}
			for _, sw := range []struct{ tape, startHead int }{{0, head}, {1, 0}} {
				got, want := score(c, sw.tape, sw.startHead), score(plain, sw.tape, sw.startHead)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("table to %d, tape %d from %d: score %v, untabled %v", c.tab.Max, sw.tape, sw.startHead, got, want)
				}
			}
		}
	})
}
