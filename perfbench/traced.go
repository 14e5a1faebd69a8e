package main

import (
	"fmt"
	"runtime"
	"time"
)

// traceState accumulates the traced runs of one benchmark run.
type traceState struct {
	epoch   time.Time
	wrap    wrapFunc
	tracers []*tracer // reused across runs; [0] is the main goroutine's
	runs    int32
	live    []*tracer // the tracers of the latest traced run

	totals   spanTotals // every traced run's spans by name
	arrivals int64      // simulated arrivals over every traced run
	seeds    []*seedCounts

	// Farm runs only: one value per traced run.
	split, splitPerArr, imbalance, efficiency []float64
}

// seedCounts are the exact boundary counts of a seed's first traced run.
type seedCounts struct {
	arrivals, reschedules, onArrivals, absorbed, nexts, sweeps, sweepReqs int64
}

func newTraceState(seeds int, wrap wrapFunc) *traceState {
	return &traceState{epoch: time.Now(), wrap: wrap, seeds: make([]*seedCounts, seeds)}
}

// start hands out n reset tracers for a new traced run.
func (s *traceState) start(n int) []*tracer {
	for len(s.tracers) < n {
		s.tracers = append(s.tracers, newTracer(s.epoch))
	}
	s.runs++
	s.live = s.tracers[:n]
	for _, t := range s.live {
		t.reset(s.runs)
	}
	return s.live
}

// finish folds the live run's spans and counts into the totals; the first
// traced run of seed k also fixes the seed's exact counts.
func (s *traceState) finish(k int, arrivals int64) {
	var run spanTotals
	sc := &seedCounts{arrivals: arrivals}
	for _, t := range s.live {
		run.fold(t)
		sc.sweeps += t.sweeps
		sc.sweepReqs += t.sweepReqs
		sc.absorbed += t.absorbed
	}
	sc.reschedules = run.count[spanReschedule]
	sc.onArrivals = run.count[spanOnArrival]
	sc.nexts = run.count[spanArrivalsNext] + run.count[spanSourceNext]
	s.totals.add(&run)
	s.arrivals += arrivals
	if s.seeds[k] == nil {
		s.seeds[k] = sc
	}
}

// farmRun records one traced farm run's farm-layer values.
func (s *traceState) farmRun(splitNs, splitNsPerArrival, imbalance, efficiency float64) {
	s.split = append(s.split, splitNs/1e9)
	s.splitPerArr = append(s.splitPerArr, splitNsPerArrival)
	s.imbalance = append(s.imbalance, imbalance)
	s.efficiency = append(s.efficiency, efficiency)
}

// rootParents names, for every live tracer, the span its root spans hang
// under in the written span file: none for the main tracer, the farm's
// shard phase for the shard workers.
func (s *traceState) rootParents() []int64 {
	roots := make([]int64, len(s.live))
	roots[0] = -1
	for i, sp := range s.live[0].spans {
		if sp.name == spanFarmShards {
			for k := 1; k < len(roots); k++ {
				roots[k] = int64(i)
			}
		}
	}
	return roots
}

// seedMedian returns the median over seeds of f's value on each seed's
// exact counts.
func (s *traceState) seedMedian(f func(*seedCounts) float64) float64 {
	var vs []float64
	for _, sc := range s.seeds {
		if sc != nil {
			vs = append(vs, f(sc))
		}
	}
	return median(vs)
}

// benchTraced measures the per-layer metrics. It alternates an untraced
// and a traced run of each seed, so both sides see the same machine
// state; the traced result must equal the untraced one field for field.
// A pass makes two runs of every seed, so the traced mode makes half the
// passes of the timed one in the same time.
func benchTraced(tg target, w *workloadDef, o options, rep *runReport) error {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	tr := newTraceState(w.seeds, o.wrap)
	c := newCycle(tg, w.seeds)
	if err := c.warmUp(rep); err != nil {
		return err
	}
	rep.attempted++
	if _, err := tg.traced(0, c.refs[0], tr); err != nil {
		return fmt.Errorf("traced warm-up: %w", err)
	}
	tr.totals, tr.arrivals = spanTotals{}, 0
	var layoutS, tableS []float64
	const buildRuns = 11
	for i := 0; i < buildRuns; i++ {
		t := tr.start(1)[0]
		rep.attempted++
		l, tb, err := buildSamples(t, tg.library())
		if err != nil {
			return fmt.Errorf("build spans: %w", err)
		}
		tr.totals.fold(t)
		layoutS = append(layoutS, l.Seconds())
		tableS = append(tableS, tb.Seconds())
	}
	traced := make([][]float64, w.seeds)
	c.reread()
	n := passes(w, o.seconds/2)
	done := 0
	for ; done < n && (done == 0 || time.Now().Before(deadline)); done++ {
		for k := 0; k < w.seeds; k++ {
			if err := c.timedRun(k, rep); err != nil {
				return err
			}
			rep.attempted++
			runtime.GC()
			s0 := c.last
			host, err := tg.traced(k, c.refs[k], tr)
			if err != nil {
				return fmt.Errorf("traced run, seed %d: %w", k, err)
			}
			host = atRef(host, steadyRef(s0), steadyRef(c.reread()))
			traced[k] = append(traced[k], host.Seconds())
		}
	}
	rep.attempted++
	ev, err := tg.record(0, c.refs[0])
	if err != nil {
		return fmt.Errorf("recording pass: %w", err)
	}
	if err := writeSpansFile(o.spans, tr); err != nil {
		return err
	}

	// Both sides reduce each seed's runs as host_ns_per_req does.
	var untracedHost, tracedHost float64
	for k := range traced {
		if len(traced[k]) == 0 || len(c.whole[k]) == 0 {
			return fmt.Errorf("seed %d: no traced and untraced run to compare", k)
		}
		tracedHost += tg.seedHost(traced[k])
		untracedHost += tg.seedHost(c.whole[k])
	}
	m := map[string]float64{}
	tt := &tr.totals
	runNs := float64(tt.total[spanRun])
	arrivals := float64(tr.arrivals)
	next := []spanName{spanArrivalsNext, spanSourceNext}
	sum := func(a [numSpanNames]int64, names ...spanName) float64 {
		var s int64
		for _, n := range names {
			s += a[n]
		}
		return float64(s)
	}

	m["sched.reschedule.calls_per_req"] = tr.seedMedian(func(s *seedCounts) float64 {
		return ratio(float64(s.reschedules), float64(s.arrivals))
	})
	m["sched.reschedule.ns_per_call"] = ratio(sum(tt.total, spanReschedule), sum(tt.count, spanReschedule))
	m["sched.reschedule.share"] = ratio(sum(tt.total, spanReschedule), runNs)
	m["sched.on_arrival.ns_per_call"] = ratio(sum(tt.total, spanOnArrival), sum(tt.count, spanOnArrival))
	m["sched.on_arrival.absorbed_frac"] = tr.seedMedian(func(s *seedCounts) float64 {
		return ratio(float64(s.absorbed), float64(s.onArrivals))
	})
	m["sched.sweep_len_mean"] = tr.seedMedian(func(s *seedCounts) float64 {
		return ratio(float64(s.sweepReqs+s.absorbed), float64(s.sweeps))
	})
	m["workload.next.calls_per_req"] = tr.seedMedian(func(s *seedCounts) float64 {
		return ratio(float64(s.nexts), float64(s.arrivals))
	})
	m["workload.next.ns_per_call"] = ratio(sum(tt.total, next...), sum(tt.count, next...))
	m["workload.share"] = ratio(sum(tt.total, next...), runNs)
	m["sim.self_ns_per_req"] = ratio(sum(tt.self, spanRun), arrivals)
	m["sim.share"] = ratio(sum(tt.self, spanRun), runNs)
	m["sim.events_per_req"] = ratio(float64(ev.total()), float64(c.arr[0]))
	m["sim.background_ops_per_req"] = ratio(float64(ev.background()), float64(c.arr[0]))
	if len(tr.split) > 0 {
		m["farm.split_s"] = median(tr.split)
		m["farm.split.ns_per_arrival"] = median(tr.splitPerArr)
		m["farm.shard.host_imbalance"] = median(tr.imbalance)
		m["farm.parallel_efficiency"] = median(tr.efficiency)
	} else {
		// A single library is the one-shard farm on one worker: no split,
		// one shard span, and that worker busy for the whole run.
		m["farm.split_s"] = 0
		m["farm.split.ns_per_arrival"] = 0
		m["farm.shard.host_imbalance"] = 1
		m["farm.parallel_efficiency"] = 1
	}
	m["layout.build_s"] = median(layoutS)
	m["tapemodel.table_build_s"] = median(tableS)
	var timedArr float64
	for k, hs := range c.hosts {
		timedArr += float64(len(hs)) * float64(c.arr[k])
	}
	m["runtime.gc_cpu_frac"] = ratio(c.rt.gcCPU, c.rt.gcCPU+c.rt.userCPU)
	m["runtime.allocs_per_req"] = ratio(float64(c.rt.allocObjects), timedArr)
	m["runtime.alloc_bytes_per_req"] = ratio(float64(c.rt.allocBytes), timedArr)
	m["trace.overhead_frac"] = tracedHost/untracedHost - 1
	for name, v := range perSeedMedians(c.refs, tg.layers) {
		m[name] = v
	}

	for _, pm := range perLayerMetrics {
		v, ok := m[pm.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not computed", pm.name)
		}
		rep.metrics = append(rep.metrics, metricValue{pm.name, v, pm.unit})
	}
	rep.samples["passes"] = []int{done, n}
	rep.samples["traced_runs"] = tr.runs - buildRuns
	rep.samples["untraced_runs"] = c.runs()
	rep.samples["spans_last_run"] = liveSpans(tr)
	rep.samples["span_totals"] = spanSummary(tt)
	return nil
}

func liveSpans(tr *traceState) int {
	n := 0
	for _, t := range tr.live {
		n += len(t.spans)
	}
	return n
}

// spanSummary reports every span name's count, total and self time in
// milliseconds over all traced runs.
func spanSummary(tt *spanTotals) map[string][3]float64 {
	out := map[string][3]float64{}
	for n := spanName(0); n < numSpanNames; n++ {
		if tt.count[n] > 0 {
			out[n.String()] = [3]float64{float64(tt.count[n]), float64(tt.total[n]) / 1e6, float64(tt.self[n]) / 1e6}
		}
	}
	return out
}

// perLayerMetrics lists the traced run's metrics in output order, with
// units. Host times are in host units ("s", "ns"); simulated times are
// "sim_s".
var perLayerMetrics = []struct{ name, unit string }{
	{"sched.reschedule.calls_per_req", "1/req"},
	{"sched.reschedule.ns_per_call", "ns"},
	{"sched.reschedule.share", "frac"},
	{"sched.on_arrival.ns_per_call", "ns"},
	{"sched.on_arrival.absorbed_frac", "frac"},
	{"workload.next.calls_per_req", "1/req"},
	{"workload.next.ns_per_call", "ns"},
	{"workload.share", "frac"},
	{"sim.self_ns_per_req", "ns"},
	{"sim.share", "frac"},
	{"sim.events_per_req", "1/req"},
	{"sim.background_ops_per_req", "1/req"},
	{"farm.split_s", "s"},
	{"farm.split.ns_per_arrival", "ns"},
	{"farm.shard.host_imbalance", "ratio"},
	{"farm.parallel_efficiency", "frac"},
	{"layout.build_s", "s"},
	{"tapemodel.table_build_s", "s"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.allocs_per_req", "1/req"},
	{"runtime.alloc_bytes_per_req", "B/req"},
	{"trace.overhead_frac", "frac"},
	{"drive.switch_frac", "frac"},
	{"drive.locate_frac", "frac"},
	{"drive.transfer_frac", "frac"},
	{"drive.idle_frac", "frac"},
	{"drive.write_frac", "frac"},
	{"drive.fault_frac", "frac"},
	{"drive.repair_frac", "frac"},
	{"drive.scrub_frac", "frac"},
	{"drive.down_frac", "frac"},
	{"drive.unattributed_frac", "frac"},
	{"sched.switches_per_kreq", "1/kreq"},
	{"sched.sweep_len_mean", "req"},
	{"writes.flushed_per_kreq", "1/kreq"},
	{"writes.mean_delay_s", "sim_s"},
	{"overload.expired_frac", "frac"},
	{"overload.shed_frac", "frac"},
	{"faults.retries_per_kreq", "1/kreq"},
	{"repair.copies_rebuilt", "count"},
	{"repair.mttr_s", "sim_s"},
	{"health.mttd_s", "sim_s"},
	{"health.latent_found_by_scrub_frac", "frac"},
	{"health.evacuated_tapes", "count"},
	{"farm.request_imbalance", "ratio"},
	{"farm.queue_imbalance", "ratio"},
	{"farm.failover_frac", "frac"},
}
