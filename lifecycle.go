package tapejuke

import (
	"errors"

	"tapejuke/internal/lifecycle"
)

// FillStage names a phase of the paper's gradual-fill procedure.
type FillStage = lifecycle.Stage

// Gradual-fill stages (Section 4.8).
const (
	FillEarly     = lifecycle.StageEarly
	FillPartial   = lifecycle.StagePartial
	FillRecapture = lifecycle.StageRecapture
)

// FillPlan reports what the gradual-fill procedure decided.
type FillPlan struct {
	Stage     FillStage
	Fill      float64 // base data as a fraction of raw capacity
	Replicas  int
	Rationale string
}

// PlanGradualFill applies the paper's closing recommendation (Section 4.8)
// to a partially filled jukebox: cfg.DataMB must be set to the base data
// volume. It returns a copy of cfg with the layout fields (Placement,
// Replicas, StartPos, PackAfterData) set as the procedure prescribes —
// a dedicated hot tape and replicas appended after the data while spare
// capacity allows, degrading gracefully to a plain horizontal layout as
// the jukebox fills — together with the plan and its rationale.
func PlanGradualFill(cfg Config) (Config, *FillPlan, error) {
	cfg = cfg.WithDefaults()
	if cfg.DataMB <= 0 {
		return cfg, nil, errors.New("tapejuke: PlanGradualFill needs DataMB")
	}
	capBlocks := int(cfg.TapeCapMB / cfg.BlockMB)
	dataBlocks := int(cfg.DataMB / cfg.BlockMB)
	rec, err := lifecycle.Plan(cfg.Tapes, capBlocks, dataBlocks, cfg.HotPercent)
	if err != nil {
		return cfg, nil, err
	}
	cfg.Replicas = rec.Replicas
	cfg.StartPos = rec.StartPos
	cfg.PackAfterData = rec.Packed
	cfg.Placement = rec.Kind
	return cfg, &FillPlan{
		Stage:     rec.Stage,
		Fill:      rec.Fill,
		Replicas:  rec.Replicas,
		Rationale: rec.Rationale,
	}, nil
}
