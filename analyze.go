package tapejuke

import (
	"errors"
	"fmt"

	"tapejuke/internal/analytic"
	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// Estimate is a closed-form first-order performance prediction; see Analyze.
type Estimate = analytic.Estimate

// OpenAssessment reports whether an open (Poisson) workload saturates the
// jukebox; see AssessOpenLoad.
type OpenAssessment = analytic.OpenAssessment

// Analyze returns an analytic throughput estimate for a closed-queuing
// configuration on a helical-scan drive without replication, modelling fair
// single-sweep rotation over the tapes. It complements Run: the simulator
// and the closed form are independent implementations that agree to first
// order, so a large disagreement on a custom configuration is a signal
// worth investigating. Replicated layouts, open queuing, and serpentine
// drives are out of the model's scope and return an error.
func Analyze(c Config) (*Estimate, error) {
	c = c.WithDefaults()
	if c.Replicas != 0 {
		return nil, errors.New("tapejuke: Analyze does not model replication")
	}
	if c.QueueLength <= 0 {
		return nil, errors.New("tapejuke: Analyze requires a closed-queuing configuration")
	}
	prof, lay, err := c.analyticModel("Analyze")
	if err != nil {
		return nil, err
	}
	return analytic.ClosedThroughput(prof, c.BlockMB, lay, c.ReadHotPercent, c.QueueLength)
}

// AssessOpenLoad estimates whether an open-queuing configuration's Poisson
// arrivals exceed the jukebox's service ceiling. Beyond saturation the
// backlog diverges and — as the paper observes — schedulers differ only in
// delay, not throughput. Same scope limits as Analyze (helical drive, no
// replication).
func AssessOpenLoad(c Config) (*OpenAssessment, error) {
	c = c.WithDefaults()
	if c.MeanInterarrivalSec <= 0 {
		return nil, errors.New("tapejuke: AssessOpenLoad requires an open-queuing configuration")
	}
	if c.Replicas != 0 {
		return nil, errors.New("tapejuke: AssessOpenLoad does not model replication")
	}
	prof, lay, err := c.analyticModel("AssessOpenLoad")
	if err != nil {
		return nil, err
	}
	return analytic.AssessOpen(prof, c.BlockMB, lay, c.ReadHotPercent, c.MeanInterarrivalSec)
}

// analyticModel resolves the helical-scan profile and builds the
// unreplicated layout the closed forms evaluate; fn names the caller in the
// profile error.
func (c Config) analyticModel(fn string) (*tapemodel.Profile, *layout.Layout, error) {
	prof, ok := tapemodel.PositionerByName(driveName(c.DriveProfile)).(*tapemodel.Profile)
	if !ok || prof == nil {
		return nil, nil, fmt.Errorf("tapejuke: %s needs a helical-scan profile, not %q", fn, c.DriveProfile)
	}
	kind, err := c.Placement.kind()
	if err != nil {
		return nil, nil, err
	}
	lay, err := layout.Build(layout.Config{
		Tapes:         c.Tapes,
		TapeCapBlocks: int(c.TapeCapMB / c.BlockMB),
		HotPercent:    c.HotPercent,
		Kind:          kind,
		StartPos:      c.StartPos,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("tapejuke: %w", err)
	}
	return prof, lay, nil
}
