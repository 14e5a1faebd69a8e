package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"tapejuke"
)

// target is one workload's way of running a seed. The single-library and
// farm workloads implement it; the timing loop, the checks and the metric
// assembly below are shared.
type target interface {
	// timed runs seed k through the public API with tracing off and runs
	// the output checks on its result.
	timed(k int) (outcome, error)
	// setupSample times one fresh set-up of seed k; ok is false when timed
	// already measures set-up.
	setupSample(k int) (d time.Duration, ok bool, err error)
	// traced runs seed k through the traced path and fails unless its
	// result equals ref field for field.
	traced(k int, ref any, tr *traceState) (host time.Duration, err error)
	// record runs seed k with an event recorder, checks the stream and
	// returns the per-kind event counts.
	record(k int, ref any) (*recorder, error)
	// library is the configuration of one of the workload's libraries,
	// whose layout and cost table the traced run times on their own.
	library() tapejuke.Config
	// seedHost reduces the host times of one seed's runs to the one that
	// stands for the seed.
	seedHost(runs []float64) float64
	// workers is the number of goroutines the steady state runs on at
	// once, timed by the wall clock; 0 when it runs on the calling
	// goroutine and is timed by the process CPU clock.
	workers() int
	// simulated returns the end-to-end simulated metrics of a result,
	// layers its simulated per-layer metrics, and completed its measured
	// completions.
	simulated(res any) map[string]float64
	layers(res any) map[string]float64
	completed(res any) int64
}

// outcome is one timed run.
type outcome struct {
	res      any           // *tapejuke.Result or *tapejuke.FarmResult
	arrivals int64         // simulated arrivals, the host metric's unit of work
	steady   time.Duration // host time past set-up
	setup    time.Duration // host set-up time when the run measures it, process CPU clock
	whole    time.Duration // host time of the whole run, on steady's clock
}

// atRef scales the outcome's host times to the reference speed, given the
// host speed readings taken right before (a) and right after (b) the run.
func (o *outcome) atRef(a, b speed) {
	o.setup = atRef(o.setup, a.one, b.one)
	o.steady = atRef(o.steady, steadyRef(a), steadyRef(b))
	o.whole = atRef(o.whole, steadyRef(a), steadyRef(b))
}

// steadyRef is the kernel time of a reading on the steady state's clock:
// the parallel reading where the steady state runs on workers.
func steadyRef(s speed) time.Duration {
	if s.all > 0 {
		return s.all
	}
	return s.one
}

// options are one benchmark run's settings.
type options struct {
	seed    int64
	seconds float64
	scale   float64
	trace   bool
	wrap    wrapFunc
	spans   string // file for the last traced run's spans, "" for none
}

// runReport is what one benchmark run prints.
type runReport struct {
	attempted, failed int
	err               error
	metrics           []metricValue
	machine           *machine
	samples           map[string]any
}

// metricValue is one named measurement with its unit.
type metricValue struct {
	name  string
	value float64
	unit  string
}

// bench runs one workload for one seed and returns its report. A run that
// errors or fails a check stops the benchmark: the report then counts it
// as failed and carries the error.
func bench(w *workloadDef, o options) *runReport {
	rep := &runReport{machine: newMachine(o.seed, 0), samples: map[string]any{}}
	if err := checkCPUClock(); err != nil {
		rep.failed++
		rep.err = err
		return rep
	}
	var tg target
	if w.farm != nil {
		ft := newFarmTarget(w, o)
		rep.machine.FarmWorkers = ft.cfgs[0].Workers
		tg = ft
	} else {
		tg = newLibTarget(w, o)
	}
	cpu0, cpuOK := readCPUTicks()
	var err error
	if o.trace {
		err = benchTraced(tg, w, o, rep)
	} else {
		err = benchTimed(tg, w, o, rep)
	}
	if cpu1, ok := readCPUTicks(); ok && cpuOK {
		rep.machine.record(cpu0, cpu1)
	}
	if err != nil {
		rep.failed++
		rep.err = err
	}
	return rep
}

// cycle is the bookkeeping shared by both modes: the reference result of
// every seed, checked against every later run of the same seed, and the
// per-seed host times, every one scaled to the reference speed.
type cycle struct {
	tg    target
	refs  []any
	arr   []int64
	hosts [][]float64 // per seed: steady host seconds of each timed run
	whole [][]float64 // per seed: host seconds of each timed run, set-up included
	setup []float64   // set-up seconds
	rt    goRuntime   // runtime counters over the timed runs

	meter  *speedMeter
	last   speed       // the latest host speed reading
	speeds []float64   // every reading's single-goroutine kernel seconds
	raw    [][]float64 // per seed: steady host seconds of each timed run, unscaled
	rss    []float64   // the process's peak resident MB during each timed run
}

func newCycle(tg target, seeds int) *cycle {
	c := &cycle{tg: tg, refs: make([]any, seeds), arr: make([]int64, seeds),
		hosts: make([][]float64, seeds), whole: make([][]float64, seeds),
		raw: make([][]float64, seeds), meter: newSpeedMeter(tg.workers())}
	c.reread()
	return c
}

// reread takes a new host speed reading. Each one closes the interval of
// whatever was timed since the one before, and opens the next: timed
// things are scaled by the readings on both sides of them.
func (c *cycle) reread() speed {
	c.last = c.meter.read()
	c.speeds = append(c.speeds, c.last.one.Seconds())
	return c.last
}

// warmUp runs seed 0 once before anything is timed: the run fills the
// runner's caches and becomes seed 0's reference.
func (c *cycle) warmUp(rep *runReport) error { return c.run(0, rep, false) }

// timedRun runs seed k once untraced and keeps its host time, then takes
// one fresh set-up sample of the seed where the target needs them.
func (c *cycle) timedRun(k int, rep *runReport) error { return c.run(k, rep, true) }

// run runs seed k once untraced and, when timed, takes a set-up sample
// right after it. The first run of a seed becomes its reference; every
// later one must reproduce it exactly. One host speed reading follows,
// and both host times are scaled by it and the reading before the run.
func (c *cycle) run(k int, rep *runReport, timed bool) error {
	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	before := readGoRuntime()
	rep.attempted++
	s0 := c.last
	oc, err := c.tg.timed(k)
	if err != nil {
		return fmt.Errorf("seed %d: %w", k, err)
	}
	after := readGoRuntime()
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	var sample time.Duration
	if timed {
		rep.attempted++
		runtime.GC()
		var ok bool
		if sample, ok, err = c.tg.setupSample(k); err != nil {
			return fmt.Errorf("set-up sample, seed %d: %w", k, err)
		}
		if !ok {
			rep.attempted--
		}
	}
	s1 := c.reread()
	raw := oc.steady
	oc.atRef(s0, s1)
	if c.refs[k] == nil {
		c.refs[k], c.arr[k] = oc.res, oc.arrivals
	} else if d := diffFields(c.refs[k], oc.res); d != "" {
		return fmt.Errorf("seed %d: rerun differs from the first run at %s", k, d)
	}
	if timed {
		for _, d := range []time.Duration{oc.setup, atRef(sample, s0.one, s1.one)} {
			if d > 0 {
				c.setup = append(c.setup, d.Seconds())
			}
		}
		c.hosts[k] = append(c.hosts[k], oc.steady.Seconds())
		c.whole[k] = append(c.whole[k], oc.whole.Seconds())
		c.raw[k] = append(c.raw[k], raw.Seconds())
		c.rss = append(c.rss, rss)
		c.rt.add(after.sub(before))
	}
	return nil
}

// hostNsPerReq is the median over seeds of each seed's steady host time
// per simulated arrival, each seed timed as its target's seedHost says.
// The median over seeds, like the simulated metrics', keeps a few
// expensive seeds (a library losing most of its tapes early) from
// swinging the figure.
func (c *cycle) hostNsPerReq() (float64, error) { return c.nsPerReq(c.hosts) }

// nsPerReq reduces per-seed host seconds as hostNsPerReq does.
func (c *cycle) nsPerReq(hosts [][]float64) (float64, error) {
	perSeed := make([]float64, len(hosts))
	for k, hs := range hosts {
		if len(hs) == 0 {
			return 0, fmt.Errorf("seed %d has no timed run", k)
		}
		perSeed[k] = c.tg.seedHost(hs) * 1e9 / float64(c.arr[k])
	}
	return median(perSeed), nil
}

func (c *cycle) runs() int {
	n := 0
	for _, hs := range c.hosts {
		n += len(hs)
	}
	return n
}

// passes is how many times one run times every seed. The count is fixed
// by the workload and --seconds, not by how many runs fit in the time:
// the fastest or the median of a seed's runs shifts with their number, so
// a faster build given more runs would look faster still. The deadline,
// checked between passes, only caps a run on a host far slower than
// expected.
func passes(w *workloadDef, seconds float64) int {
	return max(1, int(math.Round(seconds*w.passesPerSec)))
}

// benchTimed measures the end-to-end metrics: a warm-up run, then the
// workload's passes over the seeds, with one set-up sample after each run.
func benchTimed(tg target, w *workloadDef, o options, rep *runReport) error {
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	c := newCycle(tg, w.seeds)
	if err := c.warmUp(rep); err != nil {
		return err
	}
	n := passes(w, o.seconds)
	done := 0
	for ; done < n && (done == 0 || time.Now().Before(deadline)); done++ {
		for k := 0; k < w.seeds; k++ {
			if err := c.timedRun(k, rep); err != nil {
				return err
			}
		}
	}
	hostNs, err := c.hostNsPerReq()
	if err != nil {
		return err
	}
	rep.attempted++
	ev, err := tg.record(0, c.refs[0])
	if err != nil {
		return fmt.Errorf("recording pass: %w", err)
	}
	rep.metrics = append(rep.metrics,
		metricValue{"setup_s", median(c.setup), "s"},
		metricValue{"host_ns_per_req", hostNs, "ns"},
		metricValue{"peak_rss_mb", median(c.rss), "MB"},
	)
	sim := perSeedMedians(c.refs, tg.simulated)
	for _, m := range endToEndSim {
		rep.metrics = append(rep.metrics, metricValue{m.name, sim[m.name], m.unit})
	}
	rep.samples["passes"] = []int{done, n}
	rep.samples["timed_runs"] = c.runs()
	rep.samples["setup_samples"] = len(c.setup)
	if err := c.hostSamples(rep); err != nil {
		return err
	}
	rep.samples["completed"] = completedCounts(tg, c.refs)
	rep.samples["reservoir"] = reservoirSize
	rep.samples["events_seed0"] = ev.total()
	return nil
}

// hostSamples adds what a reader needs to see how the host ran: the
// reference kernel's reference and median time over every reading of the
// run, host_ns_per_req reduced from the unscaled times, and the lowest and
// highest per-run peak behind peak_rss_mb.
func (c *cycle) hostSamples(rep *runReport) error {
	raw, err := c.nsPerReq(c.raw)
	if err != nil {
		return err
	}
	rep.samples["kernel_ms"] = []float64{refKernel.Seconds() * 1e3, median(c.speeds) * 1e3}
	rep.samples["unscaled_host_ns_per_req"] = raw
	rep.samples["peak_rss_mb_range"] = []float64{slices.Min(c.rss), slices.Max(c.rss)}
	return nil
}

// reservoirSize is the simulator's percentile reservoir capacity: the
// response percentiles are read from at most this many samples per run.
const reservoirSize = 4096

// endToEndSim lists the simulated end-to-end metrics in output order.
var endToEndSim = []struct{ name, unit string }{
	{"sim_throughput_kbps", "KB/s"},
	{"sim_p50_response_s", "sim_s"},
	{"sim_p99_response_s", "sim_s"},
	{"sim_served_frac", "frac"},
	{"sim_availability", "frac"},
}

// perSeedMedians evaluates f on every seed's reference result and returns
// the per-metric medians over the seeds.
func perSeedMedians(refs []any, f func(any) map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range refs {
		for name, v := range f(r) {
			vals[name] = append(vals[name], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for name, vs := range vals {
		out[name] = median(vs)
	}
	return out
}

// completedCounts lists every seed's measured completions: the sample
// counts behind the response percentiles.
func completedCounts(tg target, refs []any) []int64 {
	out := make([]int64, len(refs))
	for k, r := range refs {
		out[k] = tg.completed(r)
	}
	return out
}

// writeSpansFile writes the last traced run's spans where asked.
func writeSpansFile(path string, tr *traceState) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	if err := writeSpans(f, tr.live, tr.rootParents()); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
