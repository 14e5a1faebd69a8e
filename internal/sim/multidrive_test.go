package sim

import (
	"math"
	"reflect"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

func multiCfg(drives int, factory func() sched.Scheduler) Config {
	cfg := quickCfg(factory())
	cfg.Drives = drives
	cfg.SchedulerFactory = factory
	return cfg
}

func TestMultiDriveBasics(t *testing.T) {
	factory := func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	res, err := Run(multiCfg(2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	// Conservation still holds with a shared pending list.
	if out := res.TotalArrivals - res.TotalCompleted; out != 60 {
		t.Errorf("outstanding = %d, want 60", out)
	}
	if math.Abs(res.MeanQueueLen-60) > 0.5 {
		t.Errorf("MeanQueueLen = %v, want 60", res.MeanQueueLen)
	}
}

func TestMultiDriveBeatsOneDrive(t *testing.T) {
	factory := func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	one, err := Run(quickCfg(factory()))
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(multiCfg(2, factory))
	if err != nil {
		t.Fatal(err)
	}
	// Two drives should clearly outperform one on a closed workload; a
	// factor of at least 1.4 leaves room for shared-tape contention.
	if two.ThroughputKBps < one.ThroughputKBps*1.4 {
		t.Errorf("2 drives = %.1f KB/s, 1 drive = %.1f KB/s; expected ~2x",
			two.ThroughputKBps, one.ThroughputKBps)
	}
	// And never more than the drive count allows.
	if two.ThroughputKBps > one.ThroughputKBps*2.5 {
		t.Errorf("2 drives = %.1f KB/s implausibly exceeds 2x one drive (%.1f)",
			two.ThroughputKBps, one.ThroughputKBps)
	}
}

func TestMultiDriveDeterminism(t *testing.T) {
	factory := func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
	a, err := Run(multiCfg(2, factory))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(multiCfg(2, factory))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestMultiDriveAllSchedulers(t *testing.T) {
	factories := map[string]func() sched.Scheduler{
		"fifo":         func() sched.Scheduler { return sched.NewFIFO() },
		"static-rr":    func() sched.Scheduler { return sched.NewStatic(sched.RoundRobin) },
		"dynamic-mbw":  func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) },
		"dynamic-omr":  func() sched.Scheduler { return sched.NewDynamic(sched.OldestMaxRequests) },
		"envelope-mbw": func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) },
		"envelope-old": func() sched.Scheduler { return core.NewEnvelope(core.OldestRequest) },
	}
	for name, f := range factories {
		for _, drives := range []int{2, 3} {
			for _, nr := range []int{0, 9} {
				cfg := multiCfg(drives, f)
				cfg.Horizon = 50_000
				cfg.Replicas = nr
				if nr > 0 {
					cfg.Kind = layout.Vertical
					cfg.StartPos = 1
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s drives=%d nr=%d: %v", name, drives, nr, err)
				}
				if res.TotalCompleted == 0 {
					t.Errorf("%s drives=%d nr=%d: nothing completed", name, drives, nr)
				}
			}
		}
	}
}

func TestMultiDriveOpenModel(t *testing.T) {
	factory := func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	cfg := multiCfg(2, factory)
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 500
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("no completions")
	}
	if res.IdleSeconds == 0 {
		t.Error("lightly loaded 2-drive open system should have fully idle periods")
	}
}

func TestMultiDriveObserver(t *testing.T) {
	factory := func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	cfg := multiCfg(2, factory)
	cfg.Horizon = 60_000
	counts := map[EventKind]int{}
	lastTime := -1.0
	cfg.Observer = ObserverFunc(func(ev Event) {
		counts[ev.Kind]++
		if ev.Time < lastTime {
			t.Errorf("event stream out of order: %v after %v", ev.Time, lastTime)
		}
		lastTime = ev.Time
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(counts[EventComplete]) != res.TotalCompleted {
		t.Errorf("observed %d completions, result says %d",
			counts[EventComplete], res.TotalCompleted)
	}
	if counts[EventRead] != counts[EventComplete] {
		t.Errorf("reads %d != completions %d", counts[EventRead], counts[EventComplete])
	}
	if counts[EventSwitch] < 2 {
		t.Errorf("only %d switches observed with 2 drives", counts[EventSwitch])
	}
}

func TestMultiDriveValidation(t *testing.T) {
	factory := func() sched.Scheduler { return sched.NewFIFO() }
	cfg := multiCfg(11, factory) // more drives than tapes
	if _, err := Run(cfg); err == nil {
		t.Error("11 drives on 10 tapes accepted")
	}
	cfg = multiCfg(2, factory)
	cfg.SchedulerFactory = nil
	if _, err := Run(cfg); err == nil {
		t.Error("multi-drive without factory accepted")
	}
}

// multiFaultCfg: the faultCfg jukebox driven by several drives.
func multiFaultCfg(drives, nr int, fc faults.Config) Config {
	cfg := faultCfg(nr, fc)
	cfg.Drives = drives
	cfg.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
	return cfg
}

// TestMultiDriveBusyHygiene turns on the whitebox step audit (busy vector
// and request places) and runs fault-heavy multi-drive workloads: a tape
// must stay masked busy for exactly the duration of its in-flight switch,
// even when the load fails or the tape dies mid-operation.
func TestMultiDriveBusyHygiene(t *testing.T) {
	setStepAudit(t)
	configs := map[string]faults.Config{
		"fault-free":    {},
		"switch-faults": {SwitchFailProb: 0.3},
		"tape-failures": {TapeMTBFSec: 500_000},
		"everything": {
			ReadTransientProb: 0.05,
			SwitchFailProb:    0.15,
			TapeMTBFSec:       800_000,
			DriveMTBFSec:      200_000,
			BadBlocksPerTape:  1,
		},
	}
	for name, fc := range configs {
		for _, drives := range []int{2, 3} {
			cfg := multiFaultCfg(drives, 1, fc)
			cfg.Horizon = 400_000
			res, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s drives=%d: %v", name, drives, err)
			}
			if res.TotalCompleted == 0 {
				t.Errorf("%s drives=%d: nothing completed", name, drives)
			}
		}
	}
}

// TestMultiDriveFaultDeterminism: the multi-drive engine stays bit-exact
// under every fault class.
func TestMultiDriveFaultDeterminism(t *testing.T) {
	fc := faults.Config{
		ReadTransientProb: 0.05,
		SwitchFailProb:    0.1,
		TapeMTBFSec:       1_500_000,
		DriveMTBFSec:      300_000,
		BadBlocksPerTape:  1,
	}
	run := func() *Result {
		r, err := Run(multiFaultCfg(2, 1, fc))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("multi-drive fault runs diverged:\n%+v\n%+v", a, b)
	}
	if a.TransientFaults == 0 || a.SwitchFaults == 0 {
		t.Errorf("expected fault activity: %+v", a)
	}
}

// TestMultiDriveNRSweep: replica-based recovery works with several drives
// too — requests stranded by a failed tape complete on surviving copies.
func TestMultiDriveNRSweep(t *testing.T) {
	fc := faults.Config{TapeMTBFSec: 2_000_000}
	none, err := Run(multiFaultCfg(2, 0, fc))
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(multiFaultCfg(2, 1, fc))
	if err != nil {
		t.Fatal(err)
	}
	if none.TapeFailures == 0 {
		t.Fatal("no tape failures; the experiment is vacuous")
	}
	if none.Unserviceable == 0 {
		t.Error("NR=0 with failed tapes abandoned nothing")
	}
	if one.Rerouted == 0 {
		t.Error("NR=1 never rerouted to a replica")
	}
	if one.Availability <= none.Availability {
		t.Errorf("replication did not improve availability: %.4f vs %.4f",
			one.Availability, none.Availability)
	}
	checkConservation(t, none, 40)
	checkConservation(t, one, 40)
}
