// Package lifecycle implements the paper's closing operational
// recommendation (end of Section 4.8): how to lay out a jukebox as it
// gradually fills.
//
//   - While capacity is plentiful, dedicate one tape to the hottest data
//     (the preferred vertical layout) and append replicas of hot blocks at
//     the ends of the other tapes -- performance "for free" from spare
//     capacity.
//   - As data grows, keep only as many replicas as still fit.
//   - Near overflow, the hot tape is overwritten with base data (horizontal
//     layout, "nearly as good" under full replication), and finally the
//     replicas themselves are recaptured for base data.
//
// Plan turns an occupancy level into the recommended layout configuration;
// the gradualfill example and tests simulate each stage to confirm the
// recommendation's performance story.
package lifecycle

import (
	"errors"
	"fmt"

	"tapejuke/internal/layout"
)

// Stage names a phase of the jukebox's life.
type Stage int

const (
	// StageEarly: spare capacity covers a replica of every hot block on
	// every tape (full replication, vertical hot tape).
	StageEarly Stage = iota
	// StagePartial: spare capacity covers some replicas but not full
	// replication.
	StagePartial
	// StageRecapture: no room for any replica set; hot tape overwritten,
	// everything horizontal, hot data back at the tape beginnings.
	StageRecapture
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageEarly:
		return "early"
	case StagePartial:
		return "partial"
	case StageRecapture:
		return "recapture"
	}
	return "unknown"
}

// Recommendation is the layout the paper's procedure prescribes for a given
// occupancy.
type Recommendation struct {
	Stage     Stage
	Fill      float64 // base data as a fraction of raw capacity
	Replicas  int     // NR that fits in the spare capacity
	Kind      layout.Kind
	StartPos  float64 // hot/replica region placement (SP) when not packed
	Packed    bool    // append the hot/replica region right after the data
	Rationale string
}

// Plan recommends a layout for a jukebox of `tapes` tapes of capBlocks
// blocks holding dataBlocks of base data, of which hotPercent percent is
// hot. It follows Section 4.8: replicas at tape ends while they fit,
// vertical hot tape while one tape can hold the hot set, hot data at tape
// beginnings once replication is gone.
func Plan(tapes, capBlocks, dataBlocks int, hotPercent float64) (*Recommendation, error) {
	if tapes < 2 || capBlocks < 1 {
		return nil, errors.New("lifecycle: need at least two tapes with positive capacity")
	}
	if hotPercent < 0 || hotPercent > 100 {
		return nil, fmt.Errorf("lifecycle: hot percent %v out of range", hotPercent)
	}
	capacity := tapes * capBlocks
	if dataBlocks < 1 || dataBlocks > capacity {
		return nil, fmt.Errorf("lifecycle: %d data blocks do not fit %d-block capacity", dataBlocks, capacity)
	}
	hot := int(hotPercent / 100 * float64(dataBlocks))
	spare := capacity - dataBlocks

	nr := 0
	if hot > 0 {
		nr = spare / hot
	}
	if nr > tapes-1 {
		nr = tapes - 1
	}

	rec := &Recommendation{
		Fill:     float64(dataBlocks) / float64(capacity),
		Replicas: nr,
	}
	vertical := hot > 0 && hot <= capBlocks
	switch {
	case nr == tapes-1 && vertical:
		rec.Stage = StageEarly
		rec.Kind = layout.Vertical
		rec.Packed = true
		rec.Rationale = "spare capacity covers full replication: hot tape + replicas appended after each tape's data"
	case nr >= 1:
		rec.Stage = StagePartial
		rec.Packed = true
		if vertical {
			rec.Kind = layout.Vertical
			rec.Rationale = fmt.Sprintf("spare capacity covers %d replica set(s) appended after the data", nr)
		} else {
			rec.Kind = layout.Horizontal
			rec.Rationale = fmt.Sprintf("hot set exceeds one tape: horizontal layout with %d replica set(s) appended after the data", nr)
		}
	default:
		rec.Stage = StageRecapture
		rec.Kind = layout.Horizontal
		rec.StartPos = 0
		rec.Rationale = "no spare capacity: replicas recaptured, hot data at the tape beginnings"
	}
	return rec, nil
}
