package figures

import (
	"fmt"
	"slices"

	"tapejuke"
)

// The figures in this file are extension studies beyond the paper,
// registered alongside the reproduction figures so cmd/figures can
// regenerate every number in EXPERIMENTS.md.

// Serpentine compares placements and schedulers on the synthetic DLT-class
// serpentine drive -- the technology the paper excludes. Two stories in one
// figure: hot-data placement barely matters on serpentine geometry (series
// "dyn-SP0" vs "dyn-SP1"), while replication plus the envelope scheduler
// still wins ("env-NR9" vs both).
func Serpentine(o Options) (*Figure, error) { return runPlan(o, planSerpentine) }

func planSerpentine(o Options) (plan, error) {
	o.DriveProfile, o.RAO = "dlt7000", false
	return plan{
		fig: Figure{
			ID:        "serpentine",
			Title:     "Extension: placement and replication on a serpentine (DLT-class) drive",
			ParamName: intensityName(o),
		},
		jobs: slices.Concat(
			series(o, "dyn-SP0", func(c *tapejuke.Config) { c.StartPos = 0 }),
			series(o, "dyn-SP1", func(c *tapejuke.Config) { c.StartPos = 1 }),
			series(o, "env-NR9", envelopeNR9),
		),
	}, nil
}

// envelopeNR9 runs the max-bandwidth envelope scheduler on full replication.
func envelopeNR9(c *tapejuke.Config) {
	c.Algorithm = tapejuke.EnvelopeMaxBandwidth
	fullReplication(c)
}

// LTO9 runs the same study on the LTO-9-class profile (many more track
// passes, far higher streaming rate) and adds a third story: the effect of
// Recommended-Access-Order sweep reordering on the envelope scheduler
// ("env-NR9-rao" vs "env-NR9"). RAO re-sorts each mounted-tape sweep by
// serpentine service order starting from the current head, the reordering
// modern LTO drives perform in firmware.
func LTO9(o Options) (*Figure, error) { return runPlan(o, planLTO9) }

func planLTO9(o Options) (plan, error) {
	o.DriveProfile, o.RAO = "lto9", false
	return plan{
		fig: Figure{
			ID:        "lto9",
			Title:     "Extension: scheduling and RAO reordering on an LTO-9-class serpentine drive",
			ParamName: intensityName(o),
		},
		jobs: slices.Concat(
			series(o, "dyn", func(*tapejuke.Config) {}),
			series(o, "env-NR9", envelopeNR9),
			series(o, "env-NR9-rao", func(c *tapejuke.Config) {
				envelopeNR9(c)
				c.RAO = true
			}),
		),
	}, nil
}

// MultiDrive sweeps the drive count of the jukebox (the paper's future
// work) across workload intensities.
func MultiDrive(o Options) (*Figure, error) { return runPlan(o, planMultiDrive) }

func planMultiDrive(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "multidrive",
		Title:     "Extension: multi-drive jukebox scaling (shared tapes, shared pending list)",
		ParamName: intensityName(o),
	}}
	for _, drives := range []int{1, 2, 3, 4} {
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("drives-%d", drives), func(c *tapejuke.Config) { c.Drives = drives })...)
	}
	return p, nil
}

// GradualFill regenerates the Section 4.8 lifecycle table: the recommended
// layout versus the naive one at each occupancy, under the envelope
// scheduler. Row.Value carries the plan's replica count.
func GradualFill(o Options) (*Figure, error) { return runPlan(o, planGradualFill) }

func planGradualFill(o Options) (plan, error) {
	const capacityMB = 10 * 7168.0
	p := plan{fig: Figure{
		ID:        "gradualfill",
		Title:     "Extension: the Section 4.8 gradual-fill procedure vs. a naive layout",
		ParamName: "fill_fraction",
		ValueName: "plan_replicas",
	}}
	for _, fill := range []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.97, 1.0} {
		naive := tapejuke.Config{
			Algorithm:  tapejuke.EnvelopeMaxBandwidth,
			DataMB:     fill * capacityMB,
			HorizonSec: o.HorizonSec,
			Seed:       o.Seed,
		}
		planned, gf, err := tapejuke.PlanGradualFill(naive)
		if err != nil {
			return plan{}, err
		}
		replicas := float64(gf.Replicas)
		p.jobs = append(p.jobs,
			job{series: "recommended", param: fill, cfg: planned,
				value: func(*tapejuke.Result) float64 { return replicas }},
			job{series: "naive", param: fill, cfg: naive.WithDefaults()})
	}
	return p, nil
}

// Repair studies the self-healing replication extension: availability as a
// function of the simulated horizon under random tape failures, with and
// without background repair, at one and two extra replicas. Longer horizons
// accumulate more tape deaths; without repair each death permanently erodes
// the surviving copy count, while the repair planner rebuilds lost replicas
// during idle time and holds availability up. Row.Value carries the
// availability (post-warmup completed / (completed + unserviceable)).
func Repair(o Options) (*Figure, error) { return runPlan(o, planRepair) }

func planRepair(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "repair",
		Title:     "Extension: self-healing replication under tape failures (PH-100 RH-100, open model)",
		ParamName: "horizon_s",
		ValueName: "availability",
	}}
	for _, nr := range []int{1, 2} {
		p.jobs = append(p.jobs, horizonSeries(o, fmt.Sprintf("NR%d-norepair", nr), nr, availability,
			func(*tapejuke.Config) {})...)
		p.jobs = append(p.jobs, horizonSeries(o, fmt.Sprintf("NR%d-repair", nr), nr, availability,
			func(c *tapejuke.Config) { c.Repair.Enable = true })...)
	}
	return p, nil
}

// Health studies the proactive media-health extension on top of repair:
// availability and latent-error detection latency as a function of the
// horizon under tape failures and developing latent errors, for repair
// alone, repair plus idle-time scrubbing, and repair plus scrubbing plus
// preemptive evacuation of suspect tapes. Each variant appears twice: the
// "-avail" series carry availability in Row.Value and the "-mttd" series
// carry the mean onset-to-detection latency (undetected latents censored at
// the horizon), so longer horizons show scrubbing holding detection latency
// down while pure repair only learns of a latent when a read trips it.
func Health(o Options) (*Figure, error) { return runPlan(o, planHealth) }

func planHealth(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "health",
		Title:     "Extension: media-health scrubbing and evacuation under latent errors (PH-100 RH-100 NR-2, open model)",
		ParamName: "horizon_s",
		ValueName: "availability_or_mttd_s",
	}}
	for _, v := range []struct {
		label  string
		health tapejuke.HealthConfig
	}{
		{"repair", tapejuke.HealthConfig{}},
		{"scrub", tapejuke.HealthConfig{Enable: true, ScrubRate: 64}},
		{"scrub-evac", tapejuke.HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true}},
	} {
		for _, m := range []struct {
			label string
			value func(*tapejuke.Result) float64
		}{
			{"avail", availability},
			{"mttd", func(r *tapejuke.Result) float64 { return r.MeanTimeToDetectSec }},
		} {
			// Latent errors develop alongside the whole-tape deaths.
			p.jobs = append(p.jobs, horizonSeries(o, v.label+"-"+m.label, 2, m.value, func(c *tapejuke.Config) {
				c.Faults.LatentErrorsPerTape = 2
				c.Faults.LatentMeanOnsetSec = 400_000
				c.Repair.Enable = true
				c.Health = v.health
			})...)
		}
	}
	return p, nil
}

func availability(r *tapejuke.Result) float64 { return r.Availability }

// horizonSeries returns one job per horizon of the repair and health
// figures, each labelled label and reading value from its result. Both run
// the open uniform-heat workload that separates their series cleanly:
// every block hot and requested, so a block whose copies all die is
// noticed as unserviceable demand rather than silently never asked for,
// at nr extra replicas under random tape failures, changed by mut.
func horizonSeries(o Options, label string, nr int, value func(*tapejuke.Result) float64, mut func(*tapejuke.Config)) []job {
	var jobs []job
	for _, h := range []float64{250_000, 500_000, 1_000_000, 1_500_000, 2_000_000} {
		cfg := tapejuke.Config{
			Algorithm:           tapejuke.EnvelopeMaxBandwidth,
			HotPercent:          100,
			ReadHotPercent:      100,
			DataMB:              16_000,
			Replicas:            nr,
			MeanInterarrivalSec: 300,
			HorizonSec:          h,
			Seed:                13 + o.Seed,
			Faults:              tapejuke.FaultConfig{TapeMTBFSec: 1_200_000},
		}
		mut(&cfg)
		jobs = append(jobs, job{series: label, param: h, cfg: cfg.WithDefaults(), value: value})
	}
	return jobs
}
