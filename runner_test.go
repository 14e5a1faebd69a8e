package tapejuke_test

import (
	"reflect"
	"testing"

	"tapejuke"
)

// runnerConfigs is a gauntlet of configurations exercising every cache key
// the Runner holds: repeated identical configs (cache hits), layout changes
// (replicas, placement, partial fill), cost-table changes (block size,
// profile), workload model changes, serpentine profiles with and without
// RAO, multi-drive, and the fault and overload extensions, alone and
// together, whose live requests every run harvests into the next.
func runnerConfigs(horizon float64) []tapejuke.Config {
	base := tapejuke.Config{HorizonSec: horizon, Seed: 7}.WithDefaults()
	repl := base
	repl.Algorithm = tapejuke.EnvelopeMaxBandwidth
	repl.Placement = tapejuke.Vertical
	repl.Replicas = 9
	repl.StartPos = 1
	open := base
	open.QueueLength = 0
	open.MeanInterarrivalSec = 40
	blocks := base
	blocks.BlockMB = 8
	serp := base
	serp.DriveProfile = "lto9"
	rao := serp
	rao.RAO = true
	multi := base
	multi.Drives = 2
	faulty := base
	faulty.Faults.ReadTransientProb = 0.01
	faulty.Faults.MaxRetries = 2
	deadline := base
	deadline.Deadlines = tapejuke.DeadlineConfig{HotTTL: 4000, ColdTTL: 8000}
	faultyDeadline := faulty
	faultyDeadline.Deadlines = deadline.Deadlines
	return []tapejuke.Config{
		base, base, repl, base, blocks, serp, rao, serp, open,
		multi, faulty, deadline, faultyDeadline, base,
	}
}

// TestRunnerMatchesRun pins the Runner's contract: for every configuration,
// in any order, with caches hot or cold, Session reuse produces results
// identical to a fresh Run.
func TestRunnerMatchesRun(t *testing.T) {
	horizon := 150_000.0
	if testing.Short() {
		horizon = 40_000
	}
	r := tapejuke.NewRunner()
	for i, cfg := range runnerConfigs(horizon) {
		fresh, err := tapejuke.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: Run: %v", i, err)
		}
		reused, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("config %d: Runner.Run: %v", i, err)
		}
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("config %d: Runner result diverges from Run:\nfresh:  %+v\nreused: %+v", i, fresh, reused)
		}
	}
}

// TestRunnerErrorRecovery checks that a failed run leaves the Runner usable
// and still result-identical to fresh runs.
func TestRunnerErrorRecovery(t *testing.T) {
	r := tapejuke.NewRunner()
	good := tapejuke.Config{HorizonSec: 40_000, Seed: 3}.WithDefaults()
	if _, err := r.Run(good); err != nil {
		t.Fatalf("good config: %v", err)
	}
	bad := good
	bad.DriveProfile = "no-such-drive"
	if _, err := r.Run(bad); err == nil {
		t.Fatal("expected an error for an unknown profile")
	}
	badRAO := good
	badRAO.RAO = true // helical profile: must be rejected
	if _, err := r.Run(badRAO); err == nil {
		t.Fatal("expected an error for RAO on a helical profile")
	}
	fresh, err := tapejuke.Run(good)
	if err != nil {
		t.Fatal(err)
	}
	reused, err := r.Run(good)
	if err != nil {
		t.Fatalf("runner after failures: %v", err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Errorf("runner diverges after error recovery:\nfresh:  %+v\nreused: %+v", fresh, reused)
	}
}
