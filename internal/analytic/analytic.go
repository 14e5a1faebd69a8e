// Package analytic provides closed-form, first-order performance estimates
// for the tape jukebox, formalizing the paper's qualitative arguments (mean
// locate distance under a placement, sweep amortization of the tape-switch
// cost, the block-size knee of Figure 3). The estimates deliberately ignore
// scheduling cleverness -- they model a fair round-robin service of
// single-sweep batches -- so they bound the simple schedulers from below
// and give the simulator an independent cross-check: simulation and
// analysis must agree to first order on symmetric configurations, and
// tests assert that they do.
package analytic

import (
	"errors"
	"math"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// RequestMass returns, per tape, the probability that a random request's
// block lives on that tape (original copies only), under the hot/cold skew
// RH (percent of requests to hot blocks). The masses sum to 1 for layouts
// without replication; with replication they describe original placement
// only, so callers studying replicas should not rely on them.
func RequestMass(l *layout.Layout, readHotPercent float64) []float64 {
	mass := make([]float64, l.Tapes())
	hot, cold := l.NumHot(), l.NumCold()
	rh := readHotPercent / 100
	for b := 0; b < l.NumBlocks(); b++ {
		var p float64
		if l.IsHot(layout.BlockID(b)) {
			p = rh / float64(hot)
		} else {
			p = (1 - rh) / float64(cold)
		}
		mass[l.Replicas(layout.BlockID(b))[0].Tape] += p
	}
	return mass
}

// PositionCDF returns the cumulative distribution of a random request's
// position on the given tape, conditioned on the request living there
// (original copies only). cdf[p] = P(position <= p). The final entry is 1
// unless the tape holds no request mass, in which case the CDF is all
// zeros.
func PositionCDF(l *layout.Layout, readHotPercent float64, tape int) []float64 {
	cdf := make([]float64, l.TapeCap())
	hot, cold := l.NumHot(), l.NumCold()
	rh := readHotPercent / 100
	total := 0.0
	for p := 0; p < l.TapeCap(); p++ {
		if b, ok := l.BlockAt(tape, p); ok && l.Replicas(b)[0].Tape == tape {
			if l.IsHot(b) {
				total += rh / float64(hot)
			} else {
				total += (1 - rh) / float64(cold)
			}
		}
		cdf[p] = total
	}
	if total == 0 {
		return cdf
	}
	for p := range cdf {
		cdf[p] /= total
	}
	return cdf
}

// ExpectedMaxPosition returns E[max position of k independent draws] from
// the per-position distribution described by cdf -- the expected one-way
// extent of a sweep serving k requests, the quantity behind the paper's
// placement arguments (Sections 4.3 and 4.5).
func ExpectedMaxPosition(cdf []float64, k int) float64 {
	if k <= 0 || len(cdf) == 0 {
		return 0
	}
	e := 0.0
	prev := 0.0
	for p, c := range cdf {
		fk := math.Pow(c, float64(k))
		e += float64(p) * (fk - prev)
		prev = fk
	}
	return e
}

// Estimate is a first-order prediction for a closed-queuing jukebox.
type Estimate struct {
	RequestsPerSweep float64 // batch size per tape visit
	SweepExtentMB    float64 // expected one-way travel per sweep
	SweepSeconds     float64 // locates + reads within one sweep
	SwitchSeconds    float64 // rewind + eject + robot + load per visit
	CycleSeconds     float64 // sweep + switch
	ThroughputKBps   float64 // k blocks per cycle
}

// ClosedThroughput estimates the steady-state throughput of a closed
// workload of the given queue length on a helical-scan jukebox serviced by
// fair single-sweep batches, sweeping forward from the beginning of the
// tape through the expected extent and rewinding. Locates within the sweep
// use the long-motion segment (batch gaps are almost always beyond the
// short threshold at realistic batch sizes).
//
// The batch size comes from the sawtooth equilibrium of fair rotation: a
// tape's pending count grows linearly from zero after each visit, so at
// visit time it holds twice the average, k = 2*Q*mass. (With Q outstanding
// in total and per-tape pending averaging k/2, sum(k/2) = Q.) The simulator
// confirms this within ~10%.
func ClosedThroughput(prof *tapemodel.Profile, blockMB float64, l *layout.Layout,
	readHotPercent float64, queueLength int) (*Estimate, error) {
	if queueLength < 1 {
		return nil, errors.New("analytic: queue length must be positive")
	}
	if prof == nil {
		return nil, errors.New("analytic: nil profile")
	}
	mass := RequestMass(l, readHotPercent)

	// Weighted average over tapes of the per-visit cost, visiting tapes in
	// proportion to their request mass.
	var sweepSec, switchSec, served, extentMB float64
	for t := 0; t < l.Tapes(); t++ {
		if mass[t] == 0 {
			continue
		}
		k := 2 * float64(queueLength) * mass[t] // sawtooth equilibrium
		if k < 1 {
			k = 1 // a visit serves at least the request that triggered it
		}
		cdf := PositionCDF(l, readHotPercent, t)
		extent := ExpectedMaxPosition(cdf, int(math.Round(k)))
		extMB := (extent + 1) * blockMB

		// k reads, k forward locates whose distances sum to the extent.
		reads := k * prof.Read(blockMB, tapemodel.Forward)
		locates := k*prof.LongForward.Startup + prof.LongForward.PerMB*extMB

		sweepSec += mass[t] * (reads + locates)
		switchSec += mass[t] * prof.FullSwitch(extMB)
		served += mass[t] * k
		extentMB += mass[t] * extMB
	}
	cycle := sweepSec + switchSec
	if cycle == 0 {
		return nil, errors.New("analytic: layout holds no request mass")
	}
	return &Estimate{
		RequestsPerSweep: served,
		SweepExtentMB:    extentMB,
		SweepSeconds:     sweepSec,
		SwitchSeconds:    switchSec,
		CycleSeconds:     cycle,
		ThroughputKBps:   served * blockMB * 1024 / cycle,
	}, nil
}

// OpenAssessment is the analytic view of an open-queuing (Poisson)
// workload: whether the offered load exceeds what the jukebox can serve.
type OpenAssessment struct {
	// SaturationKBps estimates the service ceiling: the closed-model
	// throughput at a deep queue, where batching has amortized the
	// overheads as far as it can.
	SaturationKBps float64
	// OfferedKBps is the arrival byte rate of the open workload.
	OfferedKBps float64
	// Utilization is offered/saturation; above ~1 the backlog diverges.
	Utilization float64
	// Saturated is Utilization >= 1.
	Saturated bool
}

// AssessOpen estimates whether a Poisson workload with the given mean
// interarrival time saturates the jukebox, explaining the paper's
// open-queuing observations: beyond saturation every reasonable scheduler
// moves the same bytes and differs only in delay.
func AssessOpen(prof *tapemodel.Profile, blockMB float64, l *layout.Layout,
	readHotPercent, meanInterarrival float64) (*OpenAssessment, error) {
	if meanInterarrival <= 0 {
		return nil, errors.New("analytic: mean interarrival must be positive")
	}
	// A deep queue stands in for the saturated regime.
	deep := 20 * l.Tapes()
	est, err := ClosedThroughput(prof, blockMB, l, readHotPercent, deep)
	if err != nil {
		return nil, err
	}
	a := &OpenAssessment{
		SaturationKBps: est.ThroughputKBps,
		OfferedKBps:    blockMB * 1024 / meanInterarrival,
	}
	if a.SaturationKBps > 0 {
		a.Utilization = a.OfferedKBps / a.SaturationKBps
	}
	a.Saturated = a.Utilization >= 1
	return a, nil
}

// BlockSizeKnee returns the analytic effective-rate curve of Figure 3's
// argument: with a fixed per-request positioning overhead `overheadSec`,
// the effective fraction of the streaming rate for a transfer of b MB is
// b*readPerMB / (overheadSec + b*readPerMB). It exposes why halving a
// 16 MB block nearly halves throughput on the EXB-8505XL.
func BlockSizeKnee(prof *tapemodel.Profile, overheadSec float64, blockMB float64) float64 {
	xfer := prof.ReadForward.PerMB * blockMB
	if xfer <= 0 {
		return 0
	}
	return xfer / (overheadSec + prof.ReadForward.Startup + xfer)
}
