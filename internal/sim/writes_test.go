package sim

import (
	"strings"
	"testing"

	"tapejuke/internal/sched"
)

func writeCfg(policy WritePolicy) Config {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.WriteMeanInterarrival = 500
	cfg.WritePolicy = policy
	return cfg
}

func TestPiggybackWritesFlush(t *testing.T) {
	res, err := Run(writeCfg(WritePiggyback))
	if err != nil {
		t.Fatal(err)
	}
	if res.WritesFlushed == 0 {
		t.Fatal("no delta writes reached tape")
	}
	if res.WriteSeconds <= 0 {
		t.Error("flushes should consume drive time")
	}
	if res.MeanWriteDelaySec <= 0 {
		t.Error("buffered writes should report a residence time")
	}
	// Reads continue to be served.
	if res.Completed == 0 {
		t.Error("read workload starved by writes")
	}
	// Writes cost read throughput, but not catastrophically at this rate
	// (one delta per ~500 s against ~80 s per read).
	noWrites, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	if res.ThroughputKBps > noWrites.ThroughputKBps {
		t.Error("adding writes should not raise read throughput")
	}
	if res.ThroughputKBps < noWrites.ThroughputKBps*0.7 {
		t.Errorf("writes cost %.0f%% of read throughput; expected mild interference",
			100*(1-res.ThroughputKBps/noWrites.ThroughputKBps))
	}
}

func TestIdleOnlyWritesInOpenModel(t *testing.T) {
	cfg := writeCfg(WriteIdleOnly)
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 1000 // light read load leaves idle time
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WritesFlushed == 0 {
		t.Fatal("idle-only policy never flushed despite idle time")
	}
}

func TestIdleOnlyClosedNeedsThreshold(t *testing.T) {
	// A closed jukebox never idles, so the idle-only policy alone buffers
	// forever; the force-flush threshold is the relief valve.
	cfg := writeCfg(WriteIdleOnly)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WritesFlushed != 0 {
		t.Errorf("idle-only closed model flushed %d blocks; expected none", res.WritesFlushed)
	}
	if res.MaxBufferedWrites < 100 {
		t.Errorf("buffer peaked at %d; expected a large backlog", res.MaxBufferedWrites)
	}

	cfg.WriteFlushThreshold = 50
	res, err = Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.WritesFlushed == 0 {
		t.Error("threshold did not force flushes")
	}
	// The buffer can overshoot the threshold by the writes arriving during
	// one sweep, but not by much at this write rate.
	if res.MaxBufferedWrites > 80 {
		t.Errorf("buffer peaked at %d despite threshold 50", res.MaxBufferedWrites)
	}
}

func TestWriteValidation(t *testing.T) {
	cfg := writeCfg(WritePiggyback)
	cfg.WriteMeanInterarrival = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative write rate accepted")
	}
	cfg = writeCfg(WritePiggyback)
	cfg.WriteReserveMB = cfg.TapeCapMB
	if _, err := Run(cfg); err == nil {
		t.Error("full-tape write reserve accepted")
	}
	cfg = writeCfg("sideways")
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "unknown write policy") {
		t.Errorf("unknown write policy: err = %v", err)
	}
}

// TestMultiDriveWritesDrain exercises the write extension on a two-drive
// jukebox: the shared buffers drain through whichever drive frees up, the
// busy vector keeps flush targets exclusive, and adding a second drive does
// not hurt the read side.
func TestMultiDriveWritesDrain(t *testing.T) {
	base := writeCfg(WritePiggybackAndIdle)
	base.WriteMeanInterarrival = 300
	base.WriteFlushThreshold = 60

	one, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	cfg := base
	cfg.Scheduler = sched.NewDynamic(sched.MaxBandwidth)
	cfg.Drives = 2
	cfg.SchedulerFactory = func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
	two, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if two.WritesFlushed == 0 {
		t.Fatal("two-drive jukebox never flushed delta writes")
	}
	if two.WriteSeconds <= 0 {
		t.Error("flushes should consume drive time")
	}
	// Both runs see the same write stream; the two-drive jukebox must not
	// build a larger backlog than the single drive.
	if two.MaxBufferedWrites > one.MaxBufferedWrites {
		t.Errorf("two drives peaked at %d buffered writes, one drive at %d",
			two.MaxBufferedWrites, one.MaxBufferedWrites)
	}
	if two.Completed <= one.Completed {
		t.Errorf("two drives completed %d reads, one drive %d; writes starved the read side",
			two.Completed, one.Completed)
	}
	// Determinism holds with writes and multiple drives.
	again, err := Run(func() Config {
		c := base
		c.Scheduler = sched.NewDynamic(sched.MaxBandwidth)
		c.Drives = 2
		c.SchedulerFactory = func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) }
		return c
	}())
	if err != nil {
		t.Fatal(err)
	}
	if again.WritesFlushed != two.WritesFlushed || again.Completed != two.Completed {
		t.Error("two-drive write runs are not deterministic")
	}
}

// The policies are their public spellings: tapejuke.WritePolicy aliases
// this type, so saved configurations and the CLI use these strings.
func TestWritePolicyStrings(t *testing.T) {
	if WritePiggyback != "piggyback" || WriteIdleOnly != "idle-only" || WritePiggybackAndIdle != "piggyback+idle" {
		t.Error("WritePolicy spelling changed")
	}
}

func TestObserverSeesEvents(t *testing.T) {
	cfg := writeCfg(WritePiggybackAndIdle)
	cfg.Horizon = 50_000
	counts := map[EventKind]int{}
	cfg.Observer = ObserverFunc(func(ev Event) {
		counts[ev.Kind]++
		// Operations in flight at the horizon finish past it; allow one
		// worst-case operation (switch + full-tape locate + read).
		if ev.Time < 0 || ev.Time > cfg.Horizon+700 {
			t.Errorf("event %v at impossible time %v", ev.Kind, ev.Time)
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if int64(counts[EventComplete]) != res.TotalCompleted {
		t.Errorf("observed %d completions, result says %d",
			counts[EventComplete], res.TotalCompleted)
	}
	if counts[EventRead] < counts[EventComplete] {
		t.Error("every completion requires a read")
	}
	if counts[EventSwitch] == 0 {
		t.Error("no switch events observed")
	}
	if counts[EventWriteFlush] == 0 {
		t.Error("no write-flush events observed")
	}
}

func TestEventKindStrings(t *testing.T) {
	want := map[EventKind]string{
		EventSwitch:     "switch",
		EventRead:       "read",
		EventComplete:   "complete",
		EventIdle:       "idle",
		EventWriteFlush: "write-flush",
		EventKind(42):   "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}
