package sched

import (
	"math"

	"tapejuke/internal/tapemodel"
)

// ReorderRAO reorders the sweep in place, replacing its two-phase elevator
// order with a greedy nearest-first schedule in the spirit of the LTO
// "Recommended Access Order" drive feature: starting from the head position
// the sweep executes from, it repeatedly serves the request whose copy has
// the lowest locate time from the current head.
//
// The paper's sweeps assume helical-scan geometry, where physical distance
// is monotone in logical distance and a single elevator pass is optimal
// per direction. On serpentine geometry logically distant blocks can be
// physically adjacent (same lengthwise position on a neighboring track),
// so the elevator order can zig-zag the physical head; asking the drive
// for its recommended order is how modern serpentine deployments schedule
// batches. Greedy nearest-first is the standard host-side approximation.
//
// Ties on locate time keep the earlier request in elevator order, so the
// result is deterministic. The reordered sweep is frozen, as if the batch
// had been handed to the drive: incremental insertion is declined (Insert
// returns false) and mid-sweep arrivals wait in the pending list for the
// next reschedule.
func (s *Sweep) ReorderRAO(p tapemodel.Positioner, blockMB float64, head int) {
	// Each step rotates the chosen request to the front of the unserved
	// tail, which keeps the rest in elevator order for the tie-break.
	rest := s.buf[s.next:]
	cur := float64(head) * blockMB
	for i := range rest {
		best, bestSec := i, math.Inf(1)
		for j := i; j < len(rest); j++ {
			sec, _ := p.Locate(cur, float64(rest[j].Target.Pos)*blockMB)
			if sec < bestSec {
				best, bestSec = j, sec
			}
		}
		r := rest[best]
		copy(rest[i+1:best+1], rest[i:best])
		rest[i] = r
		cur = float64(r.Target.Pos+1) * blockMB // head rests after the read block
	}
	s.nfwd, s.frozen = 0, true
}
