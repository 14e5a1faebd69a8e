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

// repairTrace records a repair-enabled faulty run on a single drive: tapes
// die, lost replicas are rebuilt during idle time, and the promotion and
// reclamation thresholds add copy churn on top.
func repairTrace(t *testing.T) ([]Record, *sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	res, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: 1,
		QueueLength: 0, MeanInterarrival: 300,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   1_000_000, Seed: 13,
		Faults:   faults.Config{TapeMTBFSec: 1_500_000},
		Repair:   sim.RepairConfig{Enable: true},
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

func TestSummarizeRepairTrace(t *testing.T) {
	recs, res := repairTrace(t)
	s := Summarize(recs)
	reads, writes := s.Count[sim.EventRepairRead], s.Count[sim.EventRepairWrite]
	if writes != res.RepairedCopies {
		t.Errorf("trace shows %d repair writes, result reports %d repaired copies", writes, res.RepairedCopies)
	}
	if reads < writes {
		t.Errorf("%d repair writes but only %d repair reads: every copy needs a source read", writes, reads)
	}
	if s.Seconds[sim.EventRepairRead]+s.Seconds[sim.EventRepairWrite] <= 0 {
		t.Error("repair ops recorded but no repair seconds accumulated")
	}
	var out bytes.Buffer
	s.Format(&out)
	if !strings.Contains(out.String(), "repair") {
		t.Errorf("summary omits the repair line:\n%s", out.String())
	}
}

func TestVerifyRepairTrace(t *testing.T) {
	recs, res := repairTrace(t)
	if res.RepairedCopies == 0 {
		t.Fatal("trace exercises no repairs")
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("clean repair trace failed verification: %+v", rep)
	}
}

// TestVerifyRejectsRepairTampering covers the resurrection-style tamperings
// of a repair trace, mirroring the cancelled-request rules: each rewrite
// below fabricates activity the repair state machine forbids.
func TestVerifyRejectsRepairTampering(t *testing.T) {
	recs, _ := repairTrace(t)
	verify := func(recs []Record) error {
		_, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
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

	t.Run("write without source read", func(t *testing.T) {
		// Strip job j's repair-read: its repair-write then claims a copy
		// that was never read from a surviving replica.
		i := find("repair-read")
		tampered := append(append([]Record{}, recs[:i]...), recs[i+1:]...)
		if verify(tampered) == nil {
			t.Error("repair-write with no prior source read verified")
		}
	})

	t.Run("duplicate job completion", func(t *testing.T) {
		i := find("repair-write")
		tampered := append(append([]Record{}, recs[:i+1]...), recs[i])
		if verify(tampered) == nil {
			t.Error("second repair-write for one job verified")
		}
	})

	t.Run("duplicate source read", func(t *testing.T) {
		i := find("repair-read")
		tampered := append(append([]Record{}, recs[:i+1]...), recs[i])
		if verify(tampered) == nil {
			t.Error("second repair-read for one job verified")
		}
	})

	t.Run("read from failed tape", func(t *testing.T) {
		// Move a tape's failure record ahead of a repair-read from it.
		ri := -1
		for i, r := range recs {
			if r.Kind == "repair-read" {
				ri = i
				break
			}
		}
		if ri < 0 {
			t.Fatal("no repair-read record")
		}
		tampered := append([]Record{{Kind: "tape-fail", Time: 0, Tape: recs[ri].Tape, Pos: -1}},
			append([]Record{}, recs...)...)
		if verify(tampered) == nil {
			t.Error("repair-read from a failed tape verified")
		}
	})
}

// TestVerifyRejectsReclaimResurrection: a read of a (tape, position) the
// trace already reclaimed -- with no repair-write refilling it -- is data
// resurrection and must not verify.
func TestVerifyRejectsReclaimResurrection(t *testing.T) {
	verify := func(recs []Record) error {
		_, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
		return err
	}
	base := []Record{
		{Kind: "switch", Time: 0, Tape: 2, Pos: -1},
		{Kind: "read", Time: 1, Tape: 2, Pos: 5, Request: 1},
		{Kind: "reclaim", Time: 2, Tape: 2, Pos: 5},
	}
	// Durations are wrong everywhere, but resurrection is a hard error
	// (not a mismatch), so Verify must fail before tolerances matter.
	resurrect := append(append([]Record{}, base...),
		Record{Kind: "read", Time: 3, Tape: 2, Pos: 5, Request: 2})
	if verify(resurrect) == nil {
		t.Error("read of a reclaimed position verified")
	}

	// A repair-write refilling the slot makes a later read legitimate
	// again: this variant must produce no hard error.
	refill := append(append([]Record{}, base...),
		Record{Kind: "repair-read", Time: 3, Tape: 2, Pos: 3, Request: 9},
		Record{Kind: "repair-write", Time: 4, Tape: 2, Pos: 5, Request: 9},
		Record{Kind: "read", Time: 5, Tape: 2, Pos: 5, Request: 2})
	if err := verify(refill); err != nil {
		t.Errorf("read after repair-write refill rejected: %v", err)
	}
}
