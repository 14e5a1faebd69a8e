package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/sched"
)

// overloadOutstanding recovers the end-of-run outstanding count from the
// conservation identity: every minted arrival either completed, expired,
// was shed, was abandoned as unserviceable, or is still in the system.
// (Rejected arrivals are never minted and appear in no other counter.)
func overloadOutstanding(res *Result) int64 {
	return res.TotalArrivals - res.TotalCompleted - res.Expired - res.Shed - res.Unserviceable
}

func checkOverloadConservation(t *testing.T, res *Result, maxOutstanding int64) {
	t.Helper()
	out := overloadOutstanding(res)
	if out < 0 || out > maxOutstanding {
		t.Errorf("conservation broken: %d arrivals = %d completed + %d expired + %d shed + %d unserviceable + outstanding %d (bound %d)",
			res.TotalArrivals, res.TotalCompleted, res.Expired, res.Shed, res.Unserviceable, out, maxOutstanding)
	}
	if res.DeadlineMissRate < 0 || res.DeadlineMissRate > 1 {
		t.Errorf("deadline miss rate %v out of [0,1]", res.DeadlineMissRate)
	}
}

// TestDeadlineHeapMatchesSortedOrder drives the deadline calendar with
// random pushes (deadlines drawn from a few values, so ties fall to the
// IDs, which arrive out of order), removals of a random held request, and
// pops of the minimum, against a slice kept sorted on (Deadline, ID). After
// every operation the heap's top is the reference's first request, the heap
// property holds, each entry's slot is its index + 1, the heap holds as many
// requests as the reference, and every removed request's slot is 0.
func TestDeadlineHeapMatchesSortedOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ids := rng.Perm(4000)
	var h deadlineHeap
	var ref, gone []*sched.Request
	for step := 0; step < len(ids); step++ {
		// Grow the heap over the first half, shrink it over the second.
		grow := 6
		if step >= len(ids)/2 {
			grow = 3
		}
		switch op := rng.Intn(10); {
		case op < grow || len(ref) == 0:
			r := &sched.Request{ID: int64(ids[step]), Deadline: float64(1 + rng.Intn(8))}
			h.push(r)
			i := sort.Search(len(ref), func(i int) bool { return earlier(r, ref[i]) })
			ref = slices.Insert(ref, i, r)
		case op < 8:
			i := rng.Intn(len(ref))
			h.remove(ref[i])
			gone = append(gone, ref[i])
			ref = slices.Delete(ref, i, i+1)
		default:
			top := h[0]
			if top != ref[0] {
				t.Fatalf("step %d: minimum is request %d, want %d", step, top.ID, ref[0].ID)
			}
			h.remove(top)
			gone = append(gone, top)
			ref = ref[1:]
		}
		if len(h) != len(ref) {
			t.Fatalf("step %d: heap holds %d requests, reference %d", step, len(h), len(ref))
		}
		if len(h) > 0 && h[0] != ref[0] {
			t.Fatalf("step %d: top is request %d, want %d", step, h[0].ID, ref[0].ID)
		}
		for i, r := range h {
			if int(r.DeadlineSlot) != i+1 {
				t.Fatalf("step %d: entry %d has slot %d", step, i, r.DeadlineSlot)
			}
			if i > 0 && earlier(r, h[(i-1)/4]) {
				t.Fatalf("step %d: entry %d is earlier than its parent", step, i)
			}
		}
		for _, r := range gone {
			if r.DeadlineSlot != 0 {
				t.Fatalf("step %d: removed request %d keeps slot %d", step, r.ID, r.DeadlineSlot)
			}
		}
	}
	// Drain what is left in order.
	for len(h) > 0 {
		if h[0] != ref[0] {
			t.Fatalf("drain: top is request %d, want %d", h[0].ID, ref[0].ID)
		}
		h.remove(h[0])
		ref = ref[1:]
	}
}

// openOverloadCfg is an open-model workload offered faster than the drive
// can serve it, so the queue grows without relief measures.
func openOverloadCfg(s sched.Scheduler) Config {
	cfg := quickCfg(s)
	cfg.QueueLength = 0
	cfg.MeanInterarrival = 150
	return cfg
}

func collectEvents(t *testing.T, cfg Config) ([]Event, *Result) {
	t.Helper()
	var evs []Event
	cfg.Observer = ObserverFunc(func(ev Event) { evs = append(evs, ev) })
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return evs, res
}

// TestOverloadInertEventStream pins the inertness guarantee: an overload
// configuration whose layers are armed but can never fire (astronomical
// TTLs and bounds) produces the exact event stream and metrics of the
// overload-free engine, for both a dynamic and the envelope scheduler.
func TestOverloadInertEventStream(t *testing.T) {
	mk := map[string]func() sched.Scheduler{
		"dynamic":  func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) },
		"envelope": func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) },
	}
	for name, f := range mk {
		t.Run(name, func(t *testing.T) {
			baseEvs, baseRes := collectEvents(t, quickCfg(f()))

			inert := quickCfg(f())
			inert.Deadlines = DeadlineConfig{HotTTL: 1e12, ColdTTL: 1e12, Fixed: true}
			inert.Admission = AdmissionConfig{MaxQueue: 1 << 30, Policy: AdmitReject}
			inert.Degrade = DegradeConfig{QueueThreshold: 1 << 30, MaxSweep: 1}
			evs, res := collectEvents(t, inert)

			if len(evs) != len(baseEvs) {
				t.Fatalf("event count diverged: %d with inert overload, %d without", len(evs), len(baseEvs))
			}
			for i := range evs {
				if evs[i] != baseEvs[i] {
					t.Fatalf("event %d diverged: %+v vs %+v", i, evs[i], baseEvs[i])
				}
			}
			if res.Completed != baseRes.Completed || res.ThroughputKBps != baseRes.ThroughputKBps ||
				res.MeanResponseSec != baseRes.MeanResponseSec || res.P99ResponseSec != baseRes.P99ResponseSec {
				t.Errorf("metrics diverged under inert overload:\n%+v\n%+v", res, baseRes)
			}
			if res.Expired != 0 || res.Shed != 0 || res.Rejected != 0 || res.TruncatedSweeps != 0 {
				t.Errorf("inert overload config fired: %+v", res)
			}
		})
	}
}

// TestDeadlineExpiryOpen: tight TTLs on an overloaded open system expire
// requests, every expiry is reported as an event, and the books balance.
func TestDeadlineExpiryOpen(t *testing.T) {
	cfg := openOverloadCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Deadlines = DeadlineConfig{HotTTL: 600, ColdTTL: 2_500}
	var expires, sheds int64
	cfg.Observer = ObserverFunc(func(ev Event) {
		switch ev.Kind {
		case EventExpire:
			expires++
		case EventShed:
			sheds++
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired == 0 {
		t.Fatal("no expiries under tight TTLs on an overloaded system")
	}
	if expires != res.Expired {
		t.Errorf("%d expire events, result reports %d", expires, res.Expired)
	}
	if sheds != 0 || res.Shed != 0 {
		t.Errorf("shedding without admission control: %d events, %d reported", sheds, res.Shed)
	}
	if res.DeadlineMissRate == 0 {
		t.Error("expiries but zero miss rate")
	}
	if res.MaxQueueAgeSec <= 0 {
		t.Error("expiries but zero max queue age")
	}
	checkOverloadConservation(t, res, res.TotalArrivals)
}

// TestDeadlineExpiryClosedRespawn: in the closed model an expiry respawns
// the process's next request, so the population is exactly preserved.
func TestDeadlineExpiryClosedRespawn(t *testing.T) {
	cfg := quickCfg(core.NewEnvelope(core.MaxBandwidth))
	cfg.Deadlines = DeadlineConfig{HotTTL: 900, ColdTTL: 900}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Expired == 0 {
		t.Fatal("no expiries under tight TTLs")
	}
	if out := overloadOutstanding(res); out != int64(cfg.QueueLength) {
		t.Errorf("closed population drifted: outstanding %d, want %d", out, cfg.QueueLength)
	}
	if res.Completed == 0 {
		t.Error("expiry starved the run of completions")
	}
}

// TestAdmissionReject: a bounded queue under sustained overload turns
// arrivals away and the outstanding count respects the bound.
func TestAdmissionReject(t *testing.T) {
	cfg := openOverloadCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Admission = AdmissionConfig{MaxQueue: 30, Policy: AdmitReject}
	var rejects int64
	cfg.Observer = ObserverFunc(func(ev Event) {
		if ev.Kind == EventReject {
			rejects++
			if ev.Request != 0 {
				t.Errorf("reject event carries request ID %d; rejected arrivals are never minted", ev.Request)
			}
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("overloaded bounded queue rejected nothing")
	}
	if rejects != res.Rejected {
		t.Errorf("%d reject events, result reports %d", rejects, res.Rejected)
	}
	if res.Shed != 0 {
		t.Errorf("reject policy shed %d requests", res.Shed)
	}
	checkOverloadConservation(t, res, 30)
}

// TestAdmissionShed: the shed policy admits the newcomer by dropping the
// oldest pending request instead.
func TestAdmissionShed(t *testing.T) {
	cfg := openOverloadCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Admission = AdmissionConfig{MaxQueue: 30, Policy: AdmitShed}
	var sheds int64
	cfg.Observer = ObserverFunc(func(ev Event) {
		if ev.Kind == EventShed {
			sheds++
			if ev.Request == 0 {
				t.Error("shed event without a victim request ID")
			}
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("overloaded shed-policy queue shed nothing")
	}
	if sheds != res.Shed {
		t.Errorf("%d shed events, result reports %d", sheds, res.Shed)
	}
	checkOverloadConservation(t, res, 30)
}

// TestDegradeTruncatesSweeps: past the overload threshold, freshly built
// sweeps are cut to MaxSweep requests; nothing is lost.
func TestDegradeTruncatesSweeps(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Degrade = DegradeConfig{QueueThreshold: 20, MaxSweep: 3}
	var maxSweepSeen int64
	var reads int64
	cfg.Observer = ObserverFunc(func(ev Event) {
		switch ev.Kind {
		case EventRead:
			reads++
		case EventSwitch:
			if reads > maxSweepSeen {
				maxSweepSeen = reads
			}
			reads = 0
		}
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedSweeps == 0 {
		t.Fatal("permanently overloaded closed run truncated no sweeps")
	}
	if out := overloadOutstanding(res); out != int64(cfg.QueueLength) {
		t.Errorf("truncation leaked requests: outstanding %d, want %d", out, cfg.QueueLength)
	}
	// Sweeps may grow past MaxSweep via incremental insertions mid-sweep,
	// but the reschedule-time cut must show: no sweep is wildly larger.
	if maxSweepSeen > 3+int64(cfg.QueueLength) {
		t.Errorf("observed a %d-read sweep despite truncation to 3", maxSweepSeen)
	}
	if res.Completed == 0 {
		t.Error("no completions")
	}
}

// TestDegradeDeferWrites: while overloaded, policy-driven flushes are
// skipped and counted; the force-drain threshold still empties buffers.
func TestDegradeDeferWrites(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.WriteMeanInterarrival = 400
	cfg.WritePolicy = WritePiggyback
	cfg.WriteFlushThreshold = 40
	cfg.Degrade = DegradeConfig{QueueThreshold: 10, DeferWrites: true}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeferredFlushes == 0 {
		t.Fatal("permanently overloaded run deferred no flushes")
	}
	if res.WritesFlushed == 0 {
		t.Error("deferral starved the force-drain threshold too; no writes ever flushed")
	}

	// Same run without deferral flushes earlier and more often.
	base := cfg
	base.Observer = nil
	base.Degrade = DegradeConfig{}
	bres, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if bres.DeferredFlushes != 0 {
		t.Errorf("deferral disabled but %d flushes deferred", bres.DeferredFlushes)
	}
}

// TestFlashCrowdAcceptance is the PR's acceptance experiment: a flash
// crowd hits an open system protected by deadlines, a bounded shed queue,
// and sweep truncation. The run completes, reports tail latencies and the
// overload counters, and the same seed reproduces every count exactly.
func TestFlashCrowdAcceptance(t *testing.T) {
	mkCfg := func() Config {
		cfg := quickCfg(core.NewEnvelope(core.MaxBandwidth))
		cfg.QueueLength = 0
		cfg.MeanInterarrival = 300
		cfg.Deadlines = DeadlineConfig{HotTTL: 3_000, ColdTTL: 12_000}
		cfg.Admission = AdmissionConfig{MaxQueue: 120, Policy: AdmitShed}
		cfg.Degrade = DegradeConfig{QueueThreshold: 25, MaxSweep: 6}
		cfg.Burst = BurstConfig{Factor: 12, FlashAt: 60_000, FlashLen: 15_000}
		cfg.AgeWeight = 1
		return cfg
	}
	run := func() *Result {
		res, err := Run(mkCfg())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Completed == 0 {
		t.Fatal("flash-crowd run completed nothing")
	}
	if !(res.P50ResponseSec > 0 && res.P50ResponseSec <= res.P95ResponseSec &&
		res.P95ResponseSec <= res.P99ResponseSec && res.P99ResponseSec <= res.MaxResponseSec) {
		t.Errorf("percentiles out of order: p50 %.1f, p95 %.1f, p99 %.1f, max %.1f",
			res.P50ResponseSec, res.P95ResponseSec, res.P99ResponseSec, res.MaxResponseSec)
	}
	if res.Expired == 0 {
		t.Error("flash crowd expired nothing despite tight TTLs")
	}
	if res.Shed == 0 && res.Rejected == 0 {
		t.Error("flash crowd never hit the admission bound")
	}
	if res.TruncatedSweeps == 0 {
		t.Error("flash crowd never triggered sweep truncation")
	}
	if res.DeadlineMissRate <= 0 || res.DeadlineMissRate > 1 {
		t.Errorf("deadline miss rate %v out of (0,1]", res.DeadlineMissRate)
	}
	checkOverloadConservation(t, res, 120)
	t.Logf("flash crowd: p99 %.0f s, miss rate %.3f, %d expired, %d shed, %d truncated",
		res.P99ResponseSec, res.DeadlineMissRate, res.Expired, res.Shed, res.TruncatedSweeps)

	if again := run(); !reflect.DeepEqual(res, again) {
		t.Errorf("same seed diverged:\n%+v\n%+v", res, again)
	}
}

// TestClosedFlashCrowd: FlashCount ephemeral extras join the closed
// population at FlashAt and drain away without respawning.
func TestClosedFlashCrowd(t *testing.T) {
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.Burst = BurstConfig{Factor: 1, FlashAt: 50_000, FlashCount: 80}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	out := overloadOutstanding(res)
	if out < int64(cfg.QueueLength) || out > int64(cfg.QueueLength+80) {
		t.Errorf("outstanding %d outside [%d, %d]", out, cfg.QueueLength, cfg.QueueLength+80)
	}
	if res.TotalArrivals <= base.TotalArrivals {
		t.Errorf("flash crowd added no arrivals: %d vs baseline %d", res.TotalArrivals, base.TotalArrivals)
	}
	if res.TotalCompleted <= base.TotalCompleted-160 {
		t.Errorf("flash crowd collapsed throughput: %d vs baseline %d", res.TotalCompleted, base.TotalCompleted)
	}
}

// TestClosedFlashNeedsNoFactor: the closed model's flash crowd never reads
// Burst.Factor, so it validates without one and delivers the same extras
// as with one.
func TestClosedFlashNeedsNoFactor(t *testing.T) {
	run := func(factor float64) *Result {
		cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
		cfg.Burst = BurstConfig{Factor: factor, FlashAt: 50_000, FlashCount: 80}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("factor %v: %v", factor, err)
		}
		return res
	}
	without, with := run(0), run(1)
	if !reflect.DeepEqual(without, with) {
		t.Errorf("the factor changed a closed flash crowd:\n%+v\n%+v", without, with)
	}
	base, err := Run(quickCfg(sched.NewDynamic(sched.MaxBandwidth)))
	if err != nil {
		t.Fatal(err)
	}
	if without.TotalArrivals <= base.TotalArrivals {
		t.Errorf("flash crowd without a factor added no arrivals: %d vs baseline %d", without.TotalArrivals, base.TotalArrivals)
	}
}

// TestAgingReducesTail: with deadlines assigned, turning on starvation-
// aware aging must not break conservation and keeps the run deterministic.
// (Whether it helps the tail is workload-dependent; the golden tests pin
// the zero-weight identity.)
func TestAgingRuns(t *testing.T) {
	for _, mk := range []func() sched.Scheduler{
		func() sched.Scheduler { return sched.NewDynamic(sched.MaxBandwidth) },
		func() sched.Scheduler { return sched.NewDynamic(sched.RoundRobin) },
		func() sched.Scheduler { return sched.NewStatic(sched.OldestMaxRequests) },
		func() sched.Scheduler { return core.NewEnvelope(core.OldestRequest) },
	} {
		cfg := quickCfg(mk())
		cfg.Deadlines = DeadlineConfig{HotTTL: 2_000, ColdTTL: 8_000}
		cfg.AgeWeight = 2
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == 0 {
			t.Fatalf("%s: aging starved the run", res.SchedulerName)
		}
		if out := overloadOutstanding(res); out != int64(cfg.QueueLength) {
			t.Errorf("%s: outstanding %d, want %d", res.SchedulerName, out, cfg.QueueLength)
		}
	}
}

// TestOverloadConfigValidation covers the typed validation errors of the
// overload surface.
func TestOverloadConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		field  string
	}{
		{"negative hot TTL", func(c *Config) { c.Deadlines.HotTTL = -1 }, "Deadlines.HotTTL"},
		{"negative cold TTL", func(c *Config) { c.Deadlines.ColdTTL = -60 }, "Deadlines.ColdTTL"},
		{"policy without bound", func(c *Config) { c.Admission.Policy = AdmitReject }, "Admission.MaxQueue"},
		{"negative bound", func(c *Config) { c.Admission.MaxQueue = -1 }, "Admission.MaxQueue"},
		{"bound without policy", func(c *Config) { c.Admission.MaxQueue = 10 }, "Admission.Policy"},
		{"unknown policy", func(c *Config) { c.Admission = AdmissionConfig{MaxQueue: 1, Policy: AdmitPolicy(9)} }, "Admission.Policy"},
		{"negative factor", func(c *Config) { c.Burst.Factor = -2 }, "Burst.Factor"},
		{"onFrac out of range", func(c *Config) { c.Burst.OnFrac = 1.5 }, "Burst.OnFrac"},
		{"negative flash", func(c *Config) { c.Burst.FlashLen = -1 }, "Burst"},
		{"burst without factor", func(c *Config) {
			c.QueueLength, c.MeanInterarrival = 0, 100
			c.Burst = BurstConfig{Period: 1000, OnFrac: 0.5}
		}, "Burst.Factor"},
		{"flash window without factor", func(c *Config) {
			c.QueueLength, c.MeanInterarrival = 0, 100
			c.Burst = BurstConfig{FlashAt: 1000, FlashLen: 500}
		}, "Burst.Factor"},
		{"modulation without onFrac", func(c *Config) {
			c.QueueLength, c.MeanInterarrival = 0, 100
			c.Burst = BurstConfig{Factor: 2, Period: 1000}
		}, "Burst.OnFrac"},
		{"modulation in closed model", func(c *Config) {
			c.Burst = BurstConfig{Factor: 2, Period: 1000, OnFrac: 0.5}
		}, "Burst"},
		{"flash count in open model", func(c *Config) {
			c.QueueLength, c.MeanInterarrival = 0, 100
			c.Burst = BurstConfig{Factor: 2, FlashCount: 5}
		}, "Burst.FlashCount"},
		{"negative queue threshold", func(c *Config) { c.Degrade.QueueThreshold = -1 }, "Degrade.QueueThreshold"},
		{"negative max sweep", func(c *Config) { c.Degrade.MaxSweep = -5 }, "Degrade.MaxSweep"},
		{"degrade action without threshold", func(c *Config) { c.Degrade.MaxSweep = 5 }, "Degrade.QueueThreshold"},
		{"threshold without action", func(c *Config) { c.Degrade.QueueThreshold = 5 }, "Degrade"},
		{"defer writes without writes", func(c *Config) {
			c.Degrade = DegradeConfig{QueueThreshold: 5, DeferWrites: true}
		}, "Degrade.DeferWrites"},
		{"negative age weight", func(c *Config) { c.AgeWeight = -0.5 }, "AgeWeight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
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

	// A fully armed valid configuration passes.
	cfg := quickCfg(sched.NewDynamic(sched.MaxBandwidth))
	cfg.QueueLength, cfg.MeanInterarrival = 0, 200
	cfg.Deadlines = DeadlineConfig{HotTTL: 1000, ColdTTL: 5000}
	cfg.Admission = AdmissionConfig{MaxQueue: 50, Policy: AdmitShed}
	cfg.Burst = BurstConfig{Factor: 8, OnFrac: 0.2, Period: 10_000, FlashAt: 50_000, FlashLen: 5_000}
	cfg.Degrade = DegradeConfig{QueueThreshold: 20, MaxSweep: 4}
	cfg.AgeWeight = 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("valid overload config rejected: %v", err)
	}
}

// FuzzOverloadConservation drives short runs across the overload-parameter
// space and asserts the conservation identity always balances: admitted
// arrivals = completed + expired + shed + unserviceable + outstanding,
// with outstanding within the model's population bounds.
func FuzzOverloadConservation(f *testing.F) {
	f.Add(int64(1), byte(0), byte(0), byte(0), byte(0), byte(0), false)
	f.Add(int64(2), byte(30), byte(100), byte(20), byte(1), byte(6), false)
	f.Add(int64(3), byte(10), byte(40), byte(15), byte(2), byte(9), true)
	f.Add(int64(4), byte(250), byte(5), byte(0), byte(0), byte(40), true)
	f.Fuzz(func(t *testing.T, seed int64, hotTTL, coldTTL, bound, policy, burst byte, closed bool) {
		cfg := quickCfg(core.NewEnvelope(core.MaxBandwidth))
		cfg.Seed = seed
		cfg.Horizon = 150_000
		cfg.Deadlines = DeadlineConfig{HotTTL: float64(hotTTL) * 25, ColdTTL: float64(coldTTL) * 25}
		pol := AdmitPolicy(policy % 3)
		maxQueue := 0
		if pol != AdmitNone {
			maxQueue = 10 + int(bound)
			cfg.Admission = AdmissionConfig{MaxQueue: maxQueue, Policy: pol}
		}
		cfg.AgeWeight = float64(burst % 3)
		if burst%2 == 0 {
			cfg.Degrade = DegradeConfig{QueueThreshold: 12, MaxSweep: 4}
		}
		flash := 0
		if closed {
			cfg.QueueLength = 20
			if burst > 0 {
				flash = int(burst)
				cfg.Burst = BurstConfig{Factor: 1, FlashAt: 40_000, FlashCount: flash}
			}
		} else {
			cfg.QueueLength = 0
			cfg.MeanInterarrival = 250
			if burst > 0 {
				cfg.Burst = BurstConfig{
					Factor: float64(burst%10) + 2, OnFrac: 0.25, Period: 20_000,
					FlashAt: 40_000, FlashLen: 10_000,
				}
			}
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.SimSeconds <= 0 {
			t.Fatalf("degenerate run: %+v", res)
		}
		maxOut := res.TotalArrivals // open model without admission: no bound
		if closed {
			maxOut = int64(20 + flash)
			// Every exit respawns a process request, so the population
			// never falls below the queue length.
			if out := overloadOutstanding(res); out < int64(cfg.QueueLength) {
				t.Errorf("closed model ends with %d outstanding, below its population of %d",
					out, cfg.QueueLength)
			}
		} else if pol != AdmitNone {
			maxOut = int64(maxQueue)
		}
		checkOverloadConservation(t, res, maxOut)
	})
}
