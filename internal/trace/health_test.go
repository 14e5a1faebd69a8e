package trace

import (
	"bytes"
	"strings"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// healthTrace records a scrub-and-evacuate run on a single drive: latent
// errors develop on tape, the idle patrol finds them, a tape crosses the
// suspicion threshold, and its copies migrate off through evacuation jobs.
func healthTrace(t *testing.T) ([]Record, *sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	res, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 6, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 150, Replicas: 2,
		QueueLength: 0, MeanInterarrival: 900,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   3_000_000, Seed: 5,
		Faults: faults.Config{LatentErrorsPerTape: 3, LatentMeanOnsetSec: 300_000},
		Repair: sim.RepairConfig{Enable: true},
		Health: sim.HealthConfig{Enable: true, ScrubRate: 128,
			ErrHalfLifeSec: 1e12, SuspectScore: 2, Evacuate: true},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

func TestSummarizeHealthTrace(t *testing.T) {
	recs, res := healthTrace(t)
	s := Summarize(recs)
	if scrubs := s.Count[sim.EventScrubRead]; scrubs == 0 || s.Seconds[sim.EventScrubRead] <= 0 {
		t.Errorf("scrub activity missing from the summary: %d reads, %v s", scrubs, s.Seconds[sim.EventScrubRead])
	}
	finds := s.Count[sim.EventLatentFound]
	if finds != res.LatentErrorsFound {
		t.Errorf("trace shows %d latent finds, result reports %d", finds, res.LatentErrorsFound)
	}
	if evac := s.Count[sim.EventEvacuate]; evac != res.EvacuatedCopies {
		t.Errorf("trace shows %d evacuations, result reports %d moved copies", evac, res.EvacuatedCopies)
	}
	if s.Count[sim.EventRepairWrite] > 0 && s.MeanReadToWriteSec <= 0 {
		t.Errorf("copies written but MeanReadToWriteSec = %v", s.MeanReadToWriteSec)
	}
	if finds > 0 && s.MeanFoundLatencySec <= 0 {
		t.Errorf("latents found but MeanFoundLatencySec = %v", s.MeanFoundLatencySec)
	}
	var out bytes.Buffer
	s.Format(&out)
	if !strings.Contains(out.String(), "health") {
		t.Errorf("summary omits the health line:\n%s", out.String())
	}
}

func TestVerifyHealthTrace(t *testing.T) {
	recs, res := healthTrace(t)
	if res.LatentFoundByScrub == 0 || res.EvacuatedCopies == 0 {
		t.Fatalf("trace exercises too little: %d by scrub, %d evacuated",
			res.LatentFoundByScrub, res.EvacuatedCopies)
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 6, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("clean health trace failed verification: %+v", rep)
	}
}

// TestVerifyRejectsHealthTampering covers the fabrications the health rules
// forbid: scrubbing dead media, double-emptying a slot, and detections with
// no detecting read.
func TestVerifyRejectsHealthTampering(t *testing.T) {
	recs, _ := healthTrace(t)
	verify := func(recs []Record) error {
		_, err := Verify(recs, tapemodel.EXB8505XL(), 16, 6, 448, 1e-6)
		return err
	}
	find := func(kind string) int {
		for i, r := range recs {
			if r.Kind == kind {
				return i
			}
		}
		t.Fatalf("no %s record in trace", kind)
		return -1
	}

	t.Run("scrub after tape failure", func(t *testing.T) {
		i := find("scrub-read")
		tampered := append([]Record{{Kind: "tape-fail", Time: 0, Tape: recs[i].Tape, Pos: -1}},
			append([]Record{}, recs...)...)
		if verify(tampered) == nil {
			t.Error("scrub-read from a failed tape verified")
		}
	})

	t.Run("double evacuation", func(t *testing.T) {
		i := find("evacuate")
		tampered := append(append([]Record{}, recs[:i+1]...), recs[i])
		if verify(tampered) == nil {
			t.Error("emptying one slot twice verified")
		}
	})

	t.Run("latent-found without access", func(t *testing.T) {
		i := find("latent-found")
		// Move the detection to a position nothing in the trace ever read.
		forged := recs[i]
		forged.Pos = 447
		tampered := append(append([]Record{}, recs...), forged)
		if verify(tampered) == nil {
			t.Error("latent detection with no detecting read verified")
		}
	})

	t.Run("duplicate latent-found", func(t *testing.T) {
		i := find("latent-found")
		tampered := append(append([]Record{}, recs[:i+1]...), recs[i])
		if verify(tampered) == nil {
			t.Error("finding the same latent twice verified")
		}
	})

	t.Run("scrub of dead position", func(t *testing.T) {
		// A scrub-read at a position whose latent error the trace already
		// detected claims verification of dead media.
		i := find("latent-found")
		forged := Record{Kind: "scrub-read", Time: recs[i].Time + 1,
			Tape: recs[i].Tape, Pos: recs[i].Pos, Seconds: 1}
		tampered := append(append([]Record{}, recs[:i+1]...), forged)
		if verify(tampered) == nil {
			t.Error("scrub-read of a detected-dead position verified")
		}
	})
}

// TestVerifyRejectsEvacuationResurrection: a read of a slot the trace
// evacuated -- with no repair-write refilling it -- is data resurrection,
// exactly like the reclaim rule.
func TestVerifyRejectsEvacuationResurrection(t *testing.T) {
	verify := func(recs []Record) error {
		_, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
		return err
	}
	base := []Record{
		{Kind: "switch", Time: 0, Tape: 2, Pos: -1},
		{Kind: "read", Time: 1, Tape: 2, Pos: 5, Request: 1},
		{Kind: "evacuate", Time: 2, Tape: 2, Pos: 5},
	}
	resurrect := append(append([]Record{}, base...),
		Record{Kind: "read", Time: 3, Tape: 2, Pos: 5, Request: 2})
	if verify(resurrect) == nil {
		t.Error("read of an evacuated position verified")
	}
	scrubbed := append(append([]Record{}, base...),
		Record{Kind: "scrub-read", Time: 3, Tape: 2, Pos: 5})
	if verify(scrubbed) == nil {
		t.Error("scrub of an evacuated position verified")
	}

	// A repair-write refilling the slot makes a later read legitimate again.
	refill := append(append([]Record{}, base...),
		Record{Kind: "repair-read", Time: 3, Tape: 2, Pos: 3, Request: 9},
		Record{Kind: "repair-write", Time: 4, Tape: 2, Pos: 5, Request: 9},
		Record{Kind: "read", Time: 5, Tape: 2, Pos: 5, Request: 2})
	if err := verify(refill); err != nil {
		t.Errorf("read after repair-write refill rejected: %v", err)
	}
}

// TestVerifyFenceTrace replays a single-drive run whose drive is fenced
// for maintenance. Fencing returns the mounted cartridge to the library,
// so the first mount after the maintenance is an initial load; a replay
// that kept the tape in the deck would price it as a full switch.
func TestVerifyFenceTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	res, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: 1,
		QueueLength: 0, MeanInterarrival: 300,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   500_000, Seed: 13,
		Faults: faults.Config{ReadTransientProb: 0.05},
		Health: sim.HealthConfig{Enable: true, ErrHalfLifeSec: 1e12,
			DriveFenceScore: 20, MaintenanceSec: 7_200},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.FencedDrives == 0 {
		t.Fatal("the run fenced no drive")
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("fenced trace failed verification: %+v", rep)
	}
}
