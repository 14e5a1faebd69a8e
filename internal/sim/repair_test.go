package sim

import (
	"reflect"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
)

// openRepairCfg is an open-model replicated workload with tape failures
// over a long horizon: the drive idles between arrivals, giving repair
// its execution window, and tapes die often enough that replicas are
// lost and rebuilt.
func openRepairCfg(nr int) Config {
	return Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: nr,
		QueueLength: 0, MeanInterarrival: 300,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   2_000_000, Seed: 13,
		Faults: faults.Config{TapeMTBFSec: 1_200_000},
	}
}

// TestRepairInertEventStream pins the inertness guarantee of the repair
// extension: with repair disabled the engine is untouched (the golden
// tests pin that), and with the repair struct armed but unfireable -- no
// faults, no promotion or reclamation thresholds -- the full event stream
// and metrics are byte-identical to a run without it, for both a closed
// and an open (idle-branch-exercising) workload.
func TestRepairInertEventStream(t *testing.T) {
	cfgs := map[string]func(sched.Scheduler) Config{
		"closed": quickCfg,
		"open":   openOverloadCfg,
	}
	mk := map[string]func() sched.Scheduler{
		"dynamic":  func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) },
		"envelope": func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) },
	}
	for cname, cf := range cfgs {
		for name, f := range mk {
			t.Run(cname+"/"+name, func(t *testing.T) {
				baseEvs, baseRes := collectEvents(t, cf(f()))

				armed := cf(f())
				armed.Repair = RepairConfig{Enable: true, HalfLifeSec: 50_000, ScanRate: 128}
				evs, res := collectEvents(t, armed)

				if len(evs) != len(baseEvs) {
					t.Fatalf("event count diverged: %d with armed repair, %d without", len(evs), len(baseEvs))
				}
				for i := range evs {
					if evs[i] != baseEvs[i] {
						t.Fatalf("event %d diverged: %+v vs %+v", i, evs[i], baseEvs[i])
					}
				}
				if res.Completed != baseRes.Completed || res.ThroughputKBps != baseRes.ThroughputKBps ||
					res.MeanResponseSec != baseRes.MeanResponseSec || res.IdleSeconds != baseRes.IdleSeconds {
					t.Errorf("metrics diverged under armed repair:\n%+v\n%+v", res, baseRes)
				}
				if res.RepairJobs != 0 || res.RepairedCopies != 0 || res.ReclaimedCopies != 0 ||
					res.RepairSeconds != 0 {
					t.Errorf("unfireable repair config fired: %+v", res)
				}
			})
		}
	}
}

// TestRepairImprovesAvailability is the tentpole acceptance experiment:
// with tape failures at NR in {1,2} over a multi-million-second horizon,
// enabling background repair strictly improves availability, mints
// copies, and reports a mean time to repair.
func TestRepairImprovesAvailability(t *testing.T) {
	for _, nr := range []int{1, 2} {
		off := openRepairCfg(nr)
		resOff, err := Run(off)
		if err != nil {
			t.Fatal(err)
		}

		on := openRepairCfg(nr)
		on.Repair = RepairConfig{Enable: true}
		resOn, err := Run(on)
		if err != nil {
			t.Fatal(err)
		}

		if resOn.RepairedCopies == 0 {
			t.Fatalf("NR=%d: repair enabled but no copies minted (%d jobs)", nr, resOn.RepairJobs)
		}
		if resOn.MeanTimeToRepairSec <= 0 {
			t.Errorf("NR=%d: MeanTimeToRepairSec = %v, want > 0", nr, resOn.MeanTimeToRepairSec)
		}
		if resOn.RepairSeconds <= 0 {
			t.Errorf("NR=%d: RepairSeconds = %v, want > 0", nr, resOn.RepairSeconds)
		}
		if resOn.Availability <= resOff.Availability {
			t.Errorf("NR=%d: availability %v with repair, %v without; want strict improvement",
				nr, resOn.Availability, resOff.Availability)
		}
		t.Logf("NR=%d: availability %.4f -> %.4f, %d copies repaired, MTTR %.0f s",
			nr, resOff.Availability, resOn.Availability, resOn.RepairedCopies, resOn.MeanTimeToRepairSec)
	}
}

// TestRepairDeterminism: identical configurations produce identical
// results, and the fault stream is not perturbed by the repair extension
// consuming injector randomness (it must consume none).
func TestRepairDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := openRepairCfg(2)
		cfg.Repair = RepairConfig{Enable: true}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repair runs diverged:\n%+v\n%+v", a, b)
	}

	// Same fault universe with and without repair: tape failures are
	// drawn at injector construction, so the count of *injected* faults
	// visible through the per-run failure times must match. The observable
	// proxy: a run with repair off and a run with repair on see the same
	// TapeFailures when every tape death is eventually discovered.
	off := openRepairCfg(2)
	resOff, err := Run(off)
	if err != nil {
		t.Fatal(err)
	}
	if a.TapeFailures < resOff.TapeFailures {
		t.Errorf("repair run discovered fewer tape failures (%d) than baseline (%d)",
			a.TapeFailures, resOff.TapeFailures)
	}
}

// TestRepairInvariants runs the engine directly and checks the structural
// postconditions: the mutated layout still validates and no destination
// reservation leaks past the end of the run.
func TestRepairInvariants(t *testing.T) {
	cfg := openRepairCfg(2)
	cfg.Repair = RepairConfig{Enable: true}
	e, err := newEngine(cfg, NewSession())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.run(); err != nil {
		t.Fatal(err)
	}
	if err := e.sh.Layout.Validate(); err != nil {
		t.Errorf("layout invalid after repair run: %v", err)
	}
	if n := e.rep.pl.ReservedCount(); n != 0 {
		t.Errorf("%d destination reservations leaked", n)
	}
}

// TestRepairPromoteReclaim: with promotion and reclamation thresholds set
// on a fault-free open workload, hot blocks gain copies and cold excess
// copies are eventually reclaimed.
func TestRepairPromoteReclaim(t *testing.T) {
	cfg := Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 10,
		ReadHotPercent: 90, DataBlocks: 1000, Replicas: 0,
		QueueLength: 0, MeanInterarrival: 200,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   1_000_000, Seed: 3,
		// The thresholds straddle the hot blocks' equilibrium heat
		// (~arrival rate x half-life / ln 2 ~= 1.3) so Poisson
		// fluctuation drives blocks across both: a lucky streak promotes,
		// a quiet stretch cools the block below the reclaim floor.
		Repair: RepairConfig{
			Enable: true, HalfLifeSec: 20_000,
			PromoteHeat: 3, ReclaimHeat: 1, MaxCopies: 3, ScanRate: 256,
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedCopies == 0 {
		t.Errorf("promotion minted no copies (%d jobs)", res.RepairJobs)
	}
	if res.ReclaimedCopies == 0 {
		t.Errorf("reclamation removed no copies (%d minted)", res.RepairedCopies)
	}
}

// TestRepairConfigValidation covers the repair surface's typed errors.
func TestRepairConfigValidation(t *testing.T) {
	base := func() Config {
		c := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
		c.Repair.Enable = true
		return c
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"negative half-life", func(c *Config) { c.Repair.HalfLifeSec = -1 }},
		{"negative promote", func(c *Config) { c.Repair.PromoteHeat = -1 }},
		{"negative reclaim", func(c *Config) { c.Repair.ReclaimHeat = -1 }},
		{"reclaim above promote", func(c *Config) { c.Repair.PromoteHeat = 1; c.Repair.ReclaimHeat = 2 }},
		{"max copies beyond tapes", func(c *Config) { c.Repair.MaxCopies = 11 }},
		{"negative scan rate", func(c *Config) { c.Repair.ScanRate = -1 }},
		{"write extension", func(c *Config) { c.WriteMeanInterarrival = 100 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("Validate accepted an invalid repair config")
			}
		})
	}
	ok := base()
	if err := ok.Validate(); err != nil {
		t.Errorf("Validate rejected a valid repair config: %v", err)
	}
}
