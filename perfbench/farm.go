package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tapejuke"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/workload"
)

// farmTarget runs the farm workload. Every timed run is a full
// tapejuke.RunFarm, set-up included, so each yields one set-up sample.
type farmTarget struct {
	w    *workloadDef
	cfgs []tapejuke.FarmConfig
}

func newFarmTarget(w *workloadDef, o options) *farmTarget {
	f := &farmTarget{w: w}
	for k := 0; k < w.seeds; k++ {
		f.cfgs = append(f.cfgs, w.farm(simSeed(o.seed, k), o.scale))
	}
	return f
}

// timed runs the farm with a ShardObserver that returns nil: it costs
// nothing, and its first call marks the end of set-up (placement, death
// projection and the split). Set-up runs on this goroutine alone, so it is
// timed by the process CPU clock, as a single library's is. The shards run
// in parallel and the slowest sets the farm's time, so the rest of the run
// is timed by the wall clock.
func (f *farmTarget) timed(k int) (outcome, error) {
	fc := f.cfgs[k]
	var setupCPU time.Duration
	var setupEnd time.Time
	fc.ShardObserver = func(int) tapejuke.Observer {
		if setupEnd.IsZero() {
			setupCPU, setupEnd = processCPU(), time.Now()
		}
		return nil
	}
	start, cpu0 := time.Now(), processCPU()
	fr, err := tapejuke.RunFarm(fc)
	end := time.Now()
	if err != nil {
		return outcome{}, err
	}
	if err := checkFarmResult(&fc, fr); err != nil {
		return outcome{}, err
	}
	return outcome{res: fr, arrivals: fr.TotalArrivals, steady: end.Sub(setupEnd),
		setup: setupCPU - cpu0, whole: end.Sub(start)}, nil
}

func (f *farmTarget) setupSample(int) (time.Duration, bool, error) { return 0, false, nil }

func (f *farmTarget) library() tapejuke.Config { return f.cfgs[0].Base }

func (f *farmTarget) workers() int { return min(max(f.cfgs[0].Workers, 1), f.cfgs[0].Shards) }

// seedHost takes the median of a seed's runs. Two shard threads sharing
// the CPUs make a farm run's time scatter both ways around its typical
// value, so the fastest run is an outlier and the median is what repeats.
func (f *farmTarget) seedHost(runs []float64) float64 { return median(runs) }

// farmView is the part of a farm run the traced path reproduces: every
// shard's Result and the router's counts.
type farmView struct {
	Shards     []*tapejuke.Result
	Routed     []int64
	FailedOver int64
}

// traced rebuilds the farm run from the benchmark's own files: the
// pre-pass with a span per step, then the shards on the same number of
// workers, each worker with its own session, tracer and reused scheduler,
// as RunFarm gives each worker its own Runner.
func (f *farmTarget) traced(k int, ref any, tr *traceState) (time.Duration, error) {
	fc := f.cfgs[k]
	n := fc.Shards
	workers := min(max(fc.Workers, 1), n)
	ts := tr.start(1 + workers)
	main := ts[0]
	root := main.begin(spanFarm)
	setup := main.begin(spanFarmSetup)
	plan, err := planSpreadFarm(fc, tapemodel.PositionerByName(fc.Base.DriveProfile), main)
	if err != nil {
		return 0, err
	}
	main.end(setup)
	phase := main.begin(spanFarmShards)
	results := make([]*tapejuke.Result, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		sw := &shardWorker{t: ts[1+w], wrap: tr.wrap, sess: sim.NewSession(),
			prof: tapemodel.PositionerByName(fc.Base.DriveProfile)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				results[i], errs[i] = sw.run(plan, fc.Base.Seed, i)
				if errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	main.end(phase)
	main.end(root)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	want := ref.(*tapejuke.FarmResult)
	got := farmView{Shards: results, Routed: plan.split.Routed, FailedOver: plan.split.FailedOver}
	if d := diffFields(farmView{want.Shards, want.Routed, want.FailedOver}, got); d != "" {
		return 0, fmt.Errorf("fidelity: traced farm differs from the untraced one at FarmResult%s", d)
	}
	var arrivals int64
	var shardSpans []float64
	var busy int64
	for _, r := range results {
		arrivals += r.TotalArrivals
	}
	for _, t := range ts[1:] {
		for i, sp := range t.spans {
			if sp.name == spanRun {
				d := t.dur(int32(i))
				shardSpans = append(shardSpans, float64(d))
				busy += d
			}
		}
	}
	split := plan.split
	var splitNs float64
	for i, sp := range main.spans {
		if sp.name == spanFarmSplit {
			splitNs = float64(main.dur(int32(i)))
		}
	}
	tr.farmRun(splitNs, splitNs/float64(split.Total), maxOverMean(shardSpans),
		float64(busy)/(float64(workers)*float64(main.dur(phase))))
	tr.finish(k, arrivals)
	return time.Duration(main.dur(root)), nil
}

// shardWorker is one traced farm worker: RunFarm's per-worker Runner with
// its pinned profile and scheduler reuse, on the traced path.
type shardWorker struct {
	t     *tracer
	wrap  wrapFunc
	sess  *sim.Session
	prof  tapemodel.Positioner
	inner sched.Scheduler
	schd  sched.Scheduler
}

func (w *shardWorker) run(plan *farmPlan, baseSeed int64, i int) (*tapejuke.Result, error) {
	c := plan.shard
	c.Seed = shardSeed(baseSeed, i)
	sc, err := simConfig(c, w.prof)
	if err != nil {
		return nil, err
	}
	if w.schd != nil && reusable(w.inner) {
		if rr, ok := w.schd.(sched.RunResetter); ok {
			rr.ResetRun()
		}
	} else {
		if w.inner, err = tapejuke.NewScheduler(c.Algorithm); err != nil {
			return nil, err
		}
		if w.schd, err = wrapChecked(w.wrap, w.inner, w.t); err != nil {
			return nil, err
		}
	}
	sc.Scheduler = w.schd
	tr := &plan.split.Traces[i]
	sc.Arrivals = &tracedArrivals{inner: workload.NewTraceArrivals(tr.Times), t: w.t}
	sc.Source = &tracedSource{inner: workload.NewTraceSource(tr.Blocks, c.Seed), t: w.t}
	root := w.t.begin(spanRun)
	res, err := w.sess.Run(sc)
	w.t.end(root)
	return res, err
}

// record runs the farm once more with a recorder per shard. The
// recorders must not change the farm result; every shard's stream must
// balance its ledger and, when the shards are single-drive and
// write-free, replay under trace.Verify.
func (f *farmTarget) record(k int, ref any) (*recorder, error) {
	fc := f.cfgs[k]
	check := verifiable(&fc.Base)
	recs := make([]*recorder, fc.Shards)
	for i := range recs {
		recs[i] = &recorder{keep: check}
	}
	fc.ShardObserver = func(i int) tapejuke.Observer { return recs[i] }
	fr, err := tapejuke.RunFarm(fc)
	if err != nil {
		return nil, err
	}
	if d := diffFields(ref, fr); d != "" {
		return nil, fmt.Errorf("observers changed the farm result at FarmResult%s", d)
	}
	all := &recorder{}
	for i, ev := range recs {
		if err := ev.checkLedger(fr.Shards[i]); err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if check {
			if err := ev.verify(&fc.Base); err != nil {
				return nil, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		for kind, c := range ev.counts {
			all.counts[kind] += c
		}
	}
	return all, nil
}

func (f *farmTarget) completed(res any) int64 { return res.(*tapejuke.FarmResult).Completed }

func (f *farmTarget) simulated(res any) map[string]float64 {
	fr := res.(*tapejuke.FarmResult)
	return map[string]float64{
		"sim_throughput_kbps": fr.ThroughputKBps,
		"sim_p50_response_s":  fr.P50ResponseSec,
		"sim_p99_response_s":  fr.P99ResponseSec,
		"sim_served_frac": servedFrac(fr.TotalCompleted,
			fr.TotalCompleted+fr.Expired+fr.Shed+fr.Rejected+fr.Unserviceable),
		"sim_availability": fr.Availability,
	}
}

func (f *farmTarget) layers(res any) map[string]float64 {
	fr := res.(*tapejuke.FarmResult)
	m := driveBuckets(fr.Shards, max(f.cfgs[0].Base.Drives, 1))
	addResultLayers(m, fr.Shards)
	m["farm.request_imbalance"] = fr.RequestImbalance
	m["farm.queue_imbalance"] = fr.QueueImbalance
	var routed int64
	for _, r := range fr.Routed {
		routed += r
	}
	m["farm.failover_frac"] = ratio(float64(fr.FailedOver), float64(routed))
	return m
}
