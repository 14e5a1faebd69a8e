package sim

import (
	"errors"
	"reflect"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// openHealthCfg is an idle-heavy open-model replicated workload with latent
// errors developing on tape: the patrol window the health extension needs,
// and the silent corruption it exists to catch.
func openHealthCfg(nr int) Config {
	return Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: nr,
		QueueLength: 0, MeanInterarrival: 600,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   2_000_000, Seed: 7,
		Faults: faults.Config{
			TapeMTBFSec: 3_000_000, BadBlocksPerTape: 1, BadBlockRangeLen: 4,
			LatentErrorsPerTape: 2, LatentMeanOnsetSec: 400_000,
		},
		Repair: RepairConfig{Enable: true},
	}
}

// TestHealthConfigValidation covers the typed errors of the health surface
// (and the repair fields feeding it) field by field.
func TestHealthConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"negative repair half-life", func(c *Config) { c.Repair.HalfLifeSec = -1 }, "Repair.HalfLifeSec"},
		{"negative promote heat", func(c *Config) { c.Repair.PromoteHeat = -1 }, "Repair.PromoteHeat"},
		{"negative reclaim heat", func(c *Config) { c.Repair.ReclaimHeat = -2 }, "Repair.ReclaimHeat"},
		{"reclaim above promote", func(c *Config) { c.Repair.PromoteHeat = 1; c.Repair.ReclaimHeat = 2 }, "Repair.ReclaimHeat"},
		{"max copies beyond tapes", func(c *Config) { c.Repair.MaxCopies = 99 }, "Repair.MaxCopies"},
		{"negative scan rate", func(c *Config) { c.Repair.ScanRate = -1 }, "Repair.ScanRate"},
		{"negative scrub rate", func(c *Config) { c.Health.ScrubRate = -1 }, "Health.ScrubRate"},
		{"negative error half-life", func(c *Config) { c.Health.ErrHalfLifeSec = -1 }, "Health.ErrHalfLifeSec"},
		{"negative wear weight", func(c *Config) { c.Health.WearWeight = -0.5 }, "Health.WearWeight"},
		{"negative suspect score", func(c *Config) { c.Health.SuspectScore = -3 }, "Health.SuspectScore"},
		{"negative fence score", func(c *Config) { c.Health.DriveFenceScore = -1 }, "Health.DriveFenceScore"},
		{"negative maintenance", func(c *Config) { c.Health.MaintenanceSec = -60 }, "Health.MaintenanceSec"},
		{"evacuate without repair", func(c *Config) {
			c.Repair.Enable = false
			c.Health.Evacuate = true
			c.Health.SuspectScore = 1
		}, "Health.Evacuate"},
		{"evacuate without suspect score", func(c *Config) { c.Health.Evacuate = true }, "Health.Evacuate"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
			cfg.Repair.Enable = true
			cfg.Health.Enable = true
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("bad config accepted")
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v is not a *ConfigError", err)
			}
			if ce.Field != tc.field {
				t.Errorf("error names field %q, want %q (%v)", ce.Field, tc.field, err)
			}
		})
	}

	// A fully armed valid configuration passes; the write extension does not
	// combine with health.
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Repair.Enable = true
	cfg.Health = HealthConfig{Enable: true, ScrubRate: 64, ErrHalfLifeSec: 50_000,
		WearWeight: 0.01, SuspectScore: 3, Evacuate: true, DriveFenceScore: 10, MaintenanceSec: 1800}
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid health config rejected: %v", err)
	}
	cfg.WriteMeanInterarrival = 500
	if err := cfg.Validate(); err == nil {
		t.Error("health accepted alongside the write extension")
	}
}

// TestHealthInertEventStream pins the inertness guarantee: a health
// configuration armed but unfireable -- no scrubbing, astronomical suspicion
// and fencing thresholds -- produces the exact event stream and metrics of a
// health-free run over a fully faulty workload (latent errors included), for
// both a closed and an open workload. Scoring runs on every mount and fault
// along the way; it must consume no randomness and change nothing.
func TestHealthInertEventStream(t *testing.T) {
	arm := func(c Config) Config {
		c.Health = HealthConfig{
			Enable: true, ScrubRate: 0, ErrHalfLifeSec: 50_000, WearWeight: 1e-9,
			SuspectScore: 1e18, Evacuate: true, DriveFenceScore: 1e18, MaintenanceSec: 60,
		}
		return c
	}
	cfgs := map[string]func() Config{
		"open": func() Config { return openHealthCfg(2) },
		"closed": func() Config {
			c := quickCfg(core.NewEnvelope(core.MaxBandwidth))
			c.Replicas = 2
			c.Faults = faults.Config{
				ReadTransientProb: 0.02, SwitchFailProb: 0.01, BadBlocksPerTape: 1,
				TapeMTBFSec: 2_000_000, DriveMTBFSec: 1_000_000,
				LatentErrorsPerTape: 2, LatentMeanOnsetSec: 100_000,
			}
			c.Repair = RepairConfig{Enable: true}
			return c
		},
	}
	for name, mk := range cfgs {
		t.Run(name, func(t *testing.T) {
			baseEvs, baseRes := collectEvents(t, mk())
			evs, res := collectEvents(t, arm(mk()))

			if len(evs) != len(baseEvs) {
				t.Fatalf("event count diverged: %d with armed health, %d without", len(evs), len(baseEvs))
			}
			for i := range evs {
				if evs[i] != baseEvs[i] {
					t.Fatalf("event %d diverged: %+v vs %+v", i, evs[i], baseEvs[i])
				}
			}
			if res.Completed != baseRes.Completed || res.ThroughputKBps != baseRes.ThroughputKBps ||
				res.Availability != baseRes.Availability || res.IdleSeconds != baseRes.IdleSeconds ||
				res.LatentErrorsFound != baseRes.LatentErrorsFound ||
				res.MeanTimeToDetectSec != baseRes.MeanTimeToDetectSec {
				t.Errorf("metrics diverged under armed health:\n%+v\n%+v", res, baseRes)
			}
			if res.ScrubbedMB != 0 || res.LatentFoundByScrub != 0 || res.SuspectTapes != 0 ||
				res.EvacuationJobs != 0 || res.EvacuatedCopies != 0 || res.FencedDrives != 0 {
				t.Errorf("unfireable health config fired: %+v", res)
			}
		})
	}
}

// TestHealthScrubImprovesDetection is the tentpole acceptance experiment on
// a pinned long-horizon scenario: adding scrubbing to repair finds latent
// errors proactively and strictly lowers the mean time to detect, and
// adding evacuation on top never costs availability versus repair alone.
func TestHealthScrubImprovesDetection(t *testing.T) {
	repairOnly, err := Run(openHealthCfg(2))
	if err != nil {
		t.Fatal(err)
	}

	scrub := openHealthCfg(2)
	scrub.Health = HealthConfig{Enable: true, ScrubRate: 64}
	withScrub, err := Run(scrub)
	if err != nil {
		t.Fatal(err)
	}

	evac := openHealthCfg(2)
	evac.Health = HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true}
	withEvac, err := Run(evac)
	if err != nil {
		t.Fatal(err)
	}

	if withScrub.LatentFoundByScrub == 0 {
		t.Fatal("scrub found no latent errors in an idle-heavy faulty run")
	}
	if withScrub.ScrubbedMB <= 0 || withScrub.ScrubSeconds <= 0 {
		t.Errorf("scrub ran nothing: %v MB in %v s", withScrub.ScrubbedMB, withScrub.ScrubSeconds)
	}
	if withScrub.MeanTimeToDetectSec >= repairOnly.MeanTimeToDetectSec {
		t.Errorf("MTTD %v with scrub, %v without; want strict improvement",
			withScrub.MeanTimeToDetectSec, repairOnly.MeanTimeToDetectSec)
	}
	if withScrub.Availability < repairOnly.Availability {
		t.Errorf("availability %v with scrub, %v repair-only; scrubbing must not cost availability",
			withScrub.Availability, repairOnly.Availability)
	}
	if withEvac.Availability < repairOnly.Availability {
		t.Errorf("availability %v with scrub+evacuation, %v repair-only; want no worse",
			withEvac.Availability, repairOnly.Availability)
	}
	if withEvac.MeanTimeToDetectSec >= repairOnly.MeanTimeToDetectSec {
		t.Errorf("MTTD %v with scrub+evacuation, %v repair-only; want strict improvement",
			withEvac.MeanTimeToDetectSec, repairOnly.MeanTimeToDetectSec)
	}
	t.Logf("availability: repair-only %.4f, +scrub %.4f, +evac %.4f; MTTD %.0f -> %.0f s (%d/%d latents by scrub)",
		repairOnly.Availability, withScrub.Availability, withEvac.Availability,
		repairOnly.MeanTimeToDetectSec, withScrub.MeanTimeToDetectSec,
		withScrub.LatentFoundByScrub, withScrub.LatentErrorsFound)
}

// TestHealthDeterminism: identical configurations reproduce identical
// results, and turning scrubbing on leaves the injected fault universe
// untouched (scrub consumes no injector randomness).
func TestHealthDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := openHealthCfg(2)
		cfg.Health = HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 3, Evacuate: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("health runs diverged:\n%+v\n%+v", a, b)
	}

	// With only construction-time fault classes (failure times and latent
	// placement, all drawn before the run starts) the fault universe is
	// fully pinned, so a scrub-on run must see the same injected faults and
	// tape failures as a scrub-off run -- only detection timing may differ.
	mk := func(scrub bool) *Result {
		cfg := openHealthCfg(2)
		cfg.Faults = faults.Config{TapeMTBFSec: 3_000_000, LatentErrorsPerTape: 2}
		if scrub {
			cfg.Health = HealthConfig{Enable: true, ScrubRate: 64}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := mk(true), mk(false)
	if on.LatentErrorsInjected != off.LatentErrorsInjected {
		t.Errorf("scrub changed the injected latent count: %d vs %d",
			on.LatentErrorsInjected, off.LatentErrorsInjected)
	}
	if on.TapeFailures != off.TapeFailures {
		t.Errorf("scrub changed the tape failure count: %d vs %d", on.TapeFailures, off.TapeFailures)
	}
	if on.LatentErrorsFound < off.LatentErrorsFound {
		t.Errorf("scrub-on found fewer latents (%d) than scrub-off (%d)",
			on.LatentErrorsFound, off.LatentErrorsFound)
	}
}

// TestHealthEvacuationDrainsSuspectTape: on a small replicated layout with
// no-decay scoring, latent detections push a tape over the suspicion
// threshold and evacuation drains every live copy off it through the repair
// machinery, mint-before-remove throughout.
func TestHealthEvacuationDrainsSuspectTape(t *testing.T) {
	cfg := Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 6, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 150, Replicas: 2,
		QueueLength: 0, MeanInterarrival: 900,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   3_000_000, Seed: 5,
		Faults: faults.Config{LatentErrorsPerTape: 3, LatentMeanOnsetSec: 300_000},
		Repair: RepairConfig{Enable: true},
		Health: HealthConfig{Enable: true, ScrubRate: 128,
			ErrHalfLifeSec: 1e12, SuspectScore: 2, Evacuate: true},
	}
	e, err := newEngine(cfg, NewSession())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.SuspectTapes == 0 {
		t.Fatal("no tape crossed the suspicion threshold")
	}
	if res.EvacuatedTapes == 0 {
		t.Fatalf("no suspect tape fully evacuated (%d suspects, %d copies moved)",
			res.SuspectTapes, res.EvacuatedCopies)
	}
	if res.EvacuatedCopies == 0 {
		t.Error("evacuation moved no copies")
	}
	if err := e.sh.Layout.Validate(); err != nil {
		t.Errorf("layout invalid after evacuation run: %v", err)
	}
	if n := e.rep.pl.ReservedCount(); n != 0 {
		t.Errorf("%d destination reservations leaked", n)
	}
	// An evacuated tape holds no live copy: everything left on it is dead.
	for tp, done := range e.hlt.evacuated {
		if !done {
			continue
		}
		for _, s := range e.sh.Layout.TapeContents(tp) {
			if e.sh.CopyOK(layout.Replica{Tape: tp, Pos: s.Pos}) {
				t.Errorf("evacuated tape %d still holds a live copy of block %d at pos %d",
					tp, s.Block, s.Pos)
			}
		}
	}
}

// TestEvacScanBudgetAndDrain pins two outcomes of the evacuation scan
// that passing over covered copies must keep. A suspect tape whose live
// copies are all covered by jobs is not drained. A scan that has spent
// its 64-job budget stops at the next live copy, covered or not, so a
// drained suspect tape after it is marked only at the next visit.
func TestEvacScanBudgetAndDrain(t *testing.T) {
	cfg := openHealthCfg(2)
	cfg.Health = HealthConfig{Enable: true, SuspectScore: 3, Evacuate: true}
	e, err := newEngine(cfg, NewSession())
	if err != nil {
		t.Fatal(err)
	}
	const covered, full, drained = 1, 2, 3
	h, pl, lay := e.hlt, e.rep.pl, e.sh.Layout
	// Replace the injector's dead-copy table in place, which the
	// schedulers and the planner share: only the drained tape's copies
	// are dead.
	only := layout.NewPosSet(lay.Tapes(), lay.TapeCap())
	for _, s := range lay.TapeContents(drained) {
		only.Add(drained, s.Pos)
	}
	*e.sh.DeadCopy = only
	for _, tp := range []int{covered, full, drained} {
		h.suspect[tp] = true
		e.res.SuspectTapes++
	}
	// Cover every block on tape `covered`, and every block on tape `full`
	// after its first 64 uncovered copies.
	cover := func(tp, keep int) {
		for _, s := range lay.TapeContents(tp) {
			if pl.Covered(s.Block) {
				continue
			}
			if keep > 0 {
				keep--
				continue
			}
			if pl.EnqueueEvacuation(s.Block, layout.Replica{Tape: tp, Pos: s.Pos}, 0) == nil {
				t.Fatalf("could not cover block %d on tape %d", s.Block, tp)
			}
		}
		if keep > 0 {
			t.Fatalf("tape %d has too few uncovered copies", tp)
		}
	}
	cover(covered, 0)
	cover(full, 64)

	e.healthEvacScan()
	if e.res.EvacuationJobs != 64 {
		t.Fatalf("first scan enqueued %d evacuation jobs, want its budget of 64", e.res.EvacuationJobs)
	}
	if h.evacuated[covered] {
		t.Error("a tape whose live copies are all covered was marked drained")
	}
	if h.evacuated[drained] {
		t.Error("the scan went past its spent budget to a later tape")
	}
	e.healthEvacScan()
	if e.res.EvacuationJobs != 64 || h.evacuated[covered] || h.evacuated[full] {
		t.Errorf("second scan: %d jobs, drained covered=%v full=%v; want 64 and neither",
			e.res.EvacuationJobs, h.evacuated[covered], h.evacuated[full])
	}
	if !h.evacuated[drained] {
		t.Error("the tape holding only dead copies was not drained at the next scan")
	}
}

// TestHealthDriveFence: a transient-error-heavy workload with a low fence
// threshold takes the drive down for maintenance and brings it back -- the
// run keeps completing requests on the other drive and afterwards.
func TestHealthDriveFence(t *testing.T) {
	cfg := Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: 1, Drives: 2,
		Scheduler:        core.NewEnvelope(core.MaxBandwidth),
		SchedulerFactory: func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) },
		QueueLength:      0, MeanInterarrival: 300,
		Horizon: 1_000_000, Seed: 3,
		Faults: faults.Config{ReadTransientProb: 0.05},
		Health: HealthConfig{Enable: true, ErrHalfLifeSec: 1e12, DriveFenceScore: 20, MaintenanceSec: 7200},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FencedDrives == 0 {
		t.Fatalf("no drive fenced under %d transient faults", res.TransientFaults)
	}
	if res.Completed == 0 {
		t.Fatal("run completed nothing")
	}
	t.Logf("%d fences over %d transient faults, %d completed", res.FencedDrives, res.TransientFaults, res.Completed)
}
