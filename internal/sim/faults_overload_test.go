package sim

import (
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
)

// TestUpTapeCounter pins the O(1) up-tape counter against the down mask it
// summarizes: markTapeDown transitions keep upTapes equal to the number of
// unmasked tapes, double-marking is idempotent, and anyTapeUp flips exactly
// when the last tape goes down.
func TestUpTapeCounter(t *testing.T) {
	cfg := faultCfg(1, faults.Config{TapeMTBFSec: 1})
	e, err := newEngine(cfg, NewSession())
	if err != nil {
		t.Fatal(err)
	}
	countUp := func() int {
		up := 0
		for _, d := range e.flt.down {
			if !d {
				up++
			}
		}
		return up
	}
	if e.flt.upTapes != cfg.Tapes || countUp() != cfg.Tapes {
		t.Fatalf("fresh engine: upTapes = %d, mask says %d, want %d", e.flt.upTapes, countUp(), cfg.Tapes)
	}
	for tape := 0; tape < cfg.Tapes; tape++ {
		e.markTapeDown(tape)
		e.markTapeDown(tape) // second mark must not double-count
		if want := countUp(); e.flt.upTapes != want {
			t.Fatalf("after downing tape %d: upTapes = %d, mask says %d", tape, e.flt.upTapes, want)
		}
		if want := tape < cfg.Tapes-1; e.flt.anyTapeUp() != want {
			t.Fatalf("after downing tape %d: anyTapeUp = %v, want %v", tape, e.flt.anyTapeUp(), want)
		}
	}
}

// faultOverloadCfg is one combined faults+overload configuration: an
// overloaded open-model envelope run on ten tapes.
func faultOverloadCfg(seed int64, transient, switchP, badBlocks byte, tapeFail bool, nr byte,
	hotTTL, coldTTL float64, policy AdmitPolicy, maxQueue int) Config {
	fc := faults.Config{
		ReadTransientProb: float64(transient%50) / 100,
		SwitchFailProb:    float64(switchP%50) / 100,
		BadBlocksPerTape:  float64(badBlocks % 8),
	}
	if tapeFail {
		fc.TapeMTBFSec = 2_000_000
	}
	return Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10, HotPercent: 100,
		ReadHotPercent: 100, DataBlocks: 1000, Replicas: int(nr % 3),
		QueueLength: 0, MeanInterarrival: 150,
		Scheduler: core.NewEnvelope(core.MaxBandwidth),
		Horizon:   150_000, Seed: seed,
		Faults:    fc,
		Deadlines: DeadlineConfig{HotTTL: hotTTL, ColdTTL: coldTTL},
		Admission: AdmissionConfig{MaxQueue: maxQueue, Policy: policy},
	}
}

// faultOverloadCase runs one combined faults+overload configuration and
// checks the joint conservation identity. Every minted arrival must be
// accounted for by exactly one of: completion, deadline expiry, admission
// shedding, fault-driven abandonment, or still-outstanding at the horizon.
func faultOverloadCase(t *testing.T, seed int64, transient, switchP, badBlocks byte, tapeFail bool, nr byte,
	hotTTL, coldTTL float64, policy AdmitPolicy, maxQueue int) {
	t.Helper()
	cfg := faultOverloadCfg(seed, transient, switchP, badBlocks, tapeFail, nr, hotTTL, coldTTL, policy, maxQueue)
	fc := cfg.Faults
	if err := cfg.Validate(); err != nil {
		t.Skip(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Outstanding is bounded by the admission queue when bounded, otherwise
	// by everything that could have arrived.
	bound := res.TotalArrivals
	if policy != AdmitNone {
		// In-service requests ride on top of the pending-queue bound; the
		// drive count is a safe allowance.
		bound = int64(maxQueue + 4)
	}
	checkOverloadConservation(t, res, bound)
	// AdmitShed also rejects when there is no pending victim to drop, so
	// only AdmitNone guarantees zero rejections.
	if res.Rejected > 0 && policy == AdmitNone {
		t.Errorf("policy %v rejected %d arrivals", policy, res.Rejected)
	}
	if res.Shed > 0 && policy != AdmitShed {
		t.Errorf("policy %v shed %d requests", policy, res.Shed)
	}
	if res.Expired > 0 && hotTTL == 0 && coldTTL == 0 {
		t.Errorf("deadlines disabled but %d requests expired", res.Expired)
	}
	// Transient read and switch failures escalate to dead copies and downed
	// tapes when retries exhaust, so only a fully fault-free config
	// guarantees zero unserviceable.
	if res.Unserviceable > 0 && !tapeFail && fc.BadBlocksPerTape == 0 &&
		fc.ReadTransientProb == 0 && fc.SwitchFailProb == 0 {
		t.Errorf("no faults configured but %d requests unserviceable", res.Unserviceable)
	}
}

// faultOverloadCases is a deterministic spread of combined fault x
// overload configurations, run at seed 11 with two replicas. In "limbo",
// frequent permanent faults and short deadlines often expire a request
// while a drive holds it in fault limbo.
var faultOverloadCases = []struct {
	name              string
	transient, badBlk byte
	tapeFail          bool
	hotTTL            float64
	policy            AdmitPolicy
	maxQueue          int
}{
	{"deadlines+tapefail", 10, 0, true, 1200, AdmitNone, 0},
	{"shed+badblocks", 0, 7, false, 0, AdmitShed, 30},
	{"reject+transient+deadlines", 25, 0, false, 900, AdmitReject, 25},
	{"everything", 15, 5, true, 1500, AdmitShed, 40},
	{"limbo", 45, 7, true, 400, AdmitNone, 0},
}

// TestFaultOverloadConservation runs faultOverloadCases; the fuzz target
// below explores further.
func TestFaultOverloadConservation(t *testing.T) {
	for _, tc := range faultOverloadCases {
		t.Run(tc.name, func(t *testing.T) {
			faultOverloadCase(t, 11, tc.transient, 0, tc.badBlk, tc.tapeFail, 2,
				tc.hotTTL, tc.hotTTL/2, tc.policy, tc.maxQueue)
		})
	}
}

// TestDeadlineCalendarHoldsOnlyLiveRequests runs the step audit
// (audit_test.go) over faultOverloadCases and a two-drive deadlines + shed
// + writes configuration. Among its checks, the deadline calendar must hold
// no request that has left the system, at any step or at the end: a
// calendar that kept finished requests until their deadlines came due
// would hold hundreds of them here.
func TestDeadlineCalendarHoldsOnlyLiveRequests(t *testing.T) {
	var cfgs []namedCfg
	for _, tc := range faultOverloadCases {
		cfgs = append(cfgs, namedCfg{tc.name, faultOverloadCfg(11, tc.transient, 0, tc.badBlk, tc.tapeFail, 2,
			tc.hotTTL, tc.hotTTL/2, tc.policy, tc.maxQueue)})
	}
	two := quickCfg(core.NewEnvelope(core.MaxBandwidth))
	two.Drives = 2
	two.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
	two.QueueLength, two.MeanInterarrival, two.Horizon = 0, 40, 400_000
	two.Burst = BurstConfig{Factor: 3, OnFrac: 0.1, Period: 20_000}
	two.WriteMeanInterarrival, two.WritePolicy = 120, WritePiggybackAndIdle
	two.Deadlines = DeadlineConfig{HotTTL: 20_000, ColdTTL: 40_000}
	two.Admission = AdmissionConfig{MaxQueue: 100, Policy: AdmitShed}
	cfgs = append(cfgs, namedCfg{"2-drive/deadlines+shed+writes", two})
	runAudited(t, cfgs, func(t *testing.T, cfg Config, res *Result) {
		if cfg.Drives == 2 && (res.Expired == 0 || res.Shed == 0 || res.WritesFlushed == 0) {
			t.Fatalf("run expired %d, shed %d and flushed %d; every path should fire",
				res.Expired, res.Shed, res.WritesFlushed)
		}
	})
}

// FuzzFaultOverloadConservation fuzzes the combined conservation identity
// with fault injection and deadline/admission relief active at once: the
// two extensions must not double-count or lose a request between them
// (e.g. a request expiring while its faulted read is in limbo).
func FuzzFaultOverloadConservation(f *testing.F) {
	f.Add(int64(1), byte(10), byte(5), byte(3), true, byte(1), 1200.0, 600.0, byte(1), 30)
	f.Add(int64(2), byte(0), byte(0), byte(9), false, byte(2), 0.0, 800.0, byte(2), 20)
	f.Add(int64(3), byte(40), byte(20), byte(0), true, byte(0), 500.0, 0.0, byte(0), 0)
	f.Add(int64(4), byte(7), byte(7), byte(7), true, byte(2), 2000.0, 2000.0, byte(2), 60)
	f.Fuzz(func(t *testing.T, seed int64, transient, switchP, badBlocks byte, tapeFail bool, nr byte,
		hotTTL, coldTTL float64, policy byte, maxQueue int) {
		if hotTTL < 0 || coldTTL < 0 || hotTTL > 1e6 || coldTTL > 1e6 {
			t.Skip("TTL out of modeled range")
		}
		p := AdmitPolicy(policy % 3)
		if p != AdmitNone && (maxQueue < 1 || maxQueue > 500) {
			t.Skip("queue bound out of modeled range")
		}
		if p == AdmitNone {
			maxQueue = 0
		}
		faultOverloadCase(t, seed, transient, switchP, badBlocks, tapeFail, nr, hotTTL, coldTTL, p, maxQueue)
	})
}
