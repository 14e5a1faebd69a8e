// Package repair implements the self-healing replication subsystem: a
// decayed per-block heat tracker and a planner that turns copy losses into
// job-id'd two-step repair jobs (read a surviving copy, write a fresh one
// to the tape with the most spare capacity), promotes newly hot
// under-replicated blocks, and reclaims cold excess replicas.
//
// The package is simulation-agnostic: liveness of tapes and copies is
// injected as predicates, and the engine drives jobs one step at a time
// during drive idle periods. Jobs are monotone under interruption --
// progress never regresses, a copy is minted atomically at commit or not
// at all, and every reservation a job holds is released when it finishes
// or cancels -- which the kill/resume fuzz in planner_test.go exercises.
package repair

import (
	"math"

	"tapejuke/internal/layout"
)

// Heat tracks exponentially decayed per-block access counts. Decay is
// lazy: each counter carries the timestamp of its last update and is
// scaled by 2^(-dt/halfLife) on the next touch or read, so idle blocks
// cost nothing per tick.
type Heat struct {
	halfLife float64
	count    []float64
	stamp    []float64
	// lastDt and lastFactor memoize the most recent decay factor. Blocks
	// decayed together at one idle visit share their dt at the next, and
	// the same dt always yields the same factor bits.
	lastDt, lastFactor float64
}

// NewHeat returns a tracker for `blocks` blocks with the given half-life
// in simulated seconds. A non-positive half-life disables decay (raw
// access counts).
func NewHeat(blocks int, halfLifeSec float64) *Heat {
	return &Heat{
		halfLife: halfLifeSec,
		count:    make([]float64, blocks),
		stamp:    make([]float64, blocks),
	}
}

// decayTo scales block b's counter forward to time now.
func (h *Heat) decayTo(b int, now float64) {
	if h.halfLife <= 0 {
		return
	}
	if dt := now - h.stamp[b]; dt > 0 {
		if dt != h.lastDt {
			h.lastDt, h.lastFactor = dt, math.Exp2(-dt/h.halfLife)
		}
		h.count[b] *= h.lastFactor
	}
	h.stamp[b] = now
}

// Touch records one access to block b at time now.
func (h *Heat) Touch(b int, now float64) {
	h.decayTo(b, now)
	h.count[b]++
}

// At returns block b's decayed heat at time now.
func (h *Heat) At(b int, now float64) float64 {
	h.decayTo(b, now)
	return h.count[b]
}

// decayEach decays every listed block to now, once each and in list
// order, writes its heat to out, and returns the index of the hottest
// (the lowest index on ties). Blocks last stamped at prev -- those the
// previous pass decayed and nothing touched since -- share one dt, so
// their factor is computed once, with the bits decayTo would compute.
func (h *Heat) decayEach(blocks []layout.BlockID, prev, now float64, out []float64) int {
	out = out[:len(blocks)]
	top, hot := 0, 0.0
	dt := now - prev
	f := math.Exp2(-dt / h.halfLife)
	for i, b := range blocks {
		switch {
		case h.halfLife <= 0:
		case h.stamp[b] == prev:
			if dt > 0 {
				h.count[b] *= f
			}
			h.stamp[b] = now
		default:
			h.decayTo(int(b), now)
		}
		x := h.count[b]
		out[i] = x
		if i == 0 || x > hot {
			top, hot = i, x
		}
	}
	return top
}
