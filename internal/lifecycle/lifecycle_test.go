package lifecycle

import (
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/layout"
	"tapejuke/internal/sim"
)

const (
	tapes     = 10
	capBlocks = 448
	capacity  = tapes * capBlocks
)

// LayoutConfig materializes the recommendation as a layout configuration
// for the given geometry.
func (r *Recommendation) LayoutConfig(tapes, capBlocks, dataBlocks int, hotPercent float64) layout.Config {
	return layout.Config{
		Tapes:         tapes,
		TapeCapBlocks: capBlocks,
		HotPercent:    hotPercent,
		Replicas:      r.Replicas,
		Kind:          r.Kind,
		StartPos:      r.StartPos,
		DataBlocks:    dataBlocks,
		PackAfterData: r.Packed,
	}
}

func TestPlanStages(t *testing.T) {
	cases := []struct {
		name       string
		data       int
		wantStage  Stage
		wantNR     int
		wantKind   layout.Kind
		wantPacked bool
	}{
		// 30% full: hot = 134 blocks, spare = 3136 -> full replication.
		{"early", capacity * 3 / 10, StageEarly, 9, layout.Vertical, true},
		// 80% full: hot = 358, spare = 896 -> 2 replica sets.
		{"partial", capacity * 8 / 10, StagePartial, 2, layout.Vertical, true},
		// 99% full: spare 44 < hot -> recapture.
		{"recapture", capacity*99/100 + 1, StageRecapture, 0, layout.Horizontal, false},
		// completely full
		{"full", capacity, StageRecapture, 0, layout.Horizontal, false},
	}
	for _, c := range cases {
		rec, err := Plan(tapes, capBlocks, c.data, 10)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rec.Stage != c.wantStage || rec.Replicas != c.wantNR ||
			rec.Kind != c.wantKind || rec.Packed != c.wantPacked {
			t.Errorf("%s: got %+v", c.name, rec)
		}
		if rec.Rationale == "" {
			t.Errorf("%s: missing rationale", c.name)
		}
		// Every recommendation must materialize into a buildable layout.
		l, err := layout.Build(rec.LayoutConfig(tapes, capBlocks, c.data, 10))
		if err != nil {
			t.Fatalf("%s: recommended layout does not build: %v", c.name, err)
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if l.NumBlocks() != c.data {
			t.Errorf("%s: layout stores %d blocks, want %d", c.name, l.NumBlocks(), c.data)
		}
	}
}

func TestPlanHotSetBeyondOneTape(t *testing.T) {
	// 30% hot on a half-full jukebox: the hot set exceeds one tape, so even
	// with spare capacity the plan must go horizontal.
	rec, err := Plan(tapes, capBlocks, capacity/2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Kind != layout.Horizontal || rec.Replicas < 1 {
		t.Errorf("got %+v, want horizontal with replicas", rec)
	}
}

func TestPlanErrors(t *testing.T) {
	if _, err := Plan(1, 448, 100, 10); err == nil {
		t.Error("single tape accepted")
	}
	if _, err := Plan(10, 448, 0, 10); err == nil {
		t.Error("empty jukebox accepted")
	}
	if _, err := Plan(10, 448, capacity+1, 10); err == nil {
		t.Error("overflow accepted")
	}
	if _, err := Plan(10, 448, 100, 101); err == nil {
		t.Error("bad hot percent accepted")
	}
}

func TestStageStrings(t *testing.T) {
	if StageEarly.String() != "early" || StagePartial.String() != "partial" ||
		StageRecapture.String() != "recapture" || Stage(9).String() != "unknown" {
		t.Error("Stage.String mismatch")
	}
}

// The paper's performance story across the fill timeline, under its
// recommended scheduler (the envelope algorithm, which is what exploits
// replicas): following the recommendation always does at least as well as
// the naive layout (no replication, hot at tape starts) at the same
// occupancy, and better while spare capacity allows replication.
func TestRecommendationBeatsNaive(t *testing.T) {
	run := func(cfgL layout.Config) float64 {
		t.Helper()
		res, err := sim.Run(sim.Config{
			BlockMB: 16, TapeCapMB: 7168, Tapes: tapes,
			HotPercent: cfgL.HotPercent, Replicas: cfgL.Replicas,
			Kind: cfgL.Kind, StartPos: cfgL.StartPos,
			DataBlocks:     cfgL.DataBlocks,
			PackAfterData:  cfgL.PackAfterData,
			ReadHotPercent: 40,
			QueueLength:    60,
			Scheduler:      core.NewEnvelope(core.MaxBandwidth),
			Horizon:        300_000, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.ThroughputKBps
	}
	for _, fill := range []float64{0.3, 0.6, 0.95} {
		data := int(fill * capacity)
		rec, err := Plan(tapes, capBlocks, data, 10)
		if err != nil {
			t.Fatal(err)
		}
		planned := run(rec.LayoutConfig(tapes, capBlocks, data, 10))
		naive := run(layout.Config{
			Tapes: tapes, TapeCapBlocks: capBlocks, HotPercent: 10,
			DataBlocks: data,
		})
		if planned < naive*0.98 { // at worst a wash, within noise
			t.Errorf("fill %.0f%%: recommendation %.1f KB/s loses to naive %.1f KB/s",
				fill*100, planned, naive)
		}
		if rec.Stage == StageEarly && planned < naive*1.02 {
			t.Errorf("fill %.0f%%: full replication should clearly beat naive (%.1f vs %.1f)",
				fill*100, planned, naive)
		}
	}
}
