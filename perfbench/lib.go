package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"tapejuke"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// libTarget runs a single-library workload. Timed runs share one warm
// tapejuke.Runner, the way a parameter sweep uses it; traced runs share
// one sim.Session with the same reuse rules.
type libTarget struct {
	w      *workloadDef
	cfgs   []tapejuke.Config
	runner *tapejuke.Runner

	// Traced-path state, built on first use.
	prof  tapemodel.Positioner // pinned like the Runner pins its profile
	sess  *sim.Session
	lay   *layout.Layout  // the workload's geometry, for the block generator
	inner sched.Scheduler // the single-drive scheduler reused across runs
	schd  sched.Scheduler // inner behind the traced wrapper
}

func newLibTarget(w *workloadDef, o options) *libTarget {
	l := &libTarget{w: w, runner: tapejuke.NewRunner()}
	for k := 0; k < w.seeds; k++ {
		l.cfgs = append(l.cfgs, w.lib(simSeed(o.seed, k), o.scale))
	}
	return l
}

func (l *libTarget) timed(k int) (outcome, error) {
	c := &l.cfgs[k]
	start := processCPU()
	res, err := l.runner.Run(*c)
	host := processCPU() - start
	if err != nil {
		return outcome{}, err
	}
	if err := checkLibResult(c, res); err != nil {
		return outcome{}, err
	}
	return outcome{res: res, arrivals: res.TotalArrivals, steady: host, whole: host}, nil
}

// setupSample times a fresh Runner from the call to the first simulated
// event: configuration checks, layout, cost table and scratch. The run is
// cut short after its first completion (with warm-up moved to the start
// so that completion counts); neither setting changes the set-up work.
func (l *libTarget) setupSample(k int) (time.Duration, bool, error) {
	c := l.cfgs[k]
	c.MaxCompletions = 1
	c.WarmupFrac = 1e-9
	var first time.Duration
	seen := false
	c.Observer = tapejuke.ObserverFunc(func(tapejuke.Event) {
		if !seen {
			first, seen = processCPU(), true
		}
	})
	start := processCPU()
	if _, err := tapejuke.NewRunner().Run(c); err != nil {
		return 0, true, err
	}
	if !seen {
		return 0, true, errors.New("run emitted no event")
	}
	return first - start, true, nil
}

func (l *libTarget) library() tapejuke.Config { return l.cfgs[0] }

func (l *libTarget) workers() int { return 0 }

// seedHost takes a seed's fastest run. A single-library run's only noise
// is the host slowing the process, for seconds at a time; scaling to the
// reference speed removes most of it but not all, and what is left only
// adds time. So the fastest of a fixed number of runs is the estimate of
// the program's own cost that repeats best from process to process; the
// median of the same runs moves with the host's load.
func (l *libTarget) seedHost(runs []float64) float64 { return slices.Min(runs) }

// buildSamples times, as spans of t, one layout build and one dense
// cost-table build of c's geometry: the set-up steps a fresh Runner pays.
func buildSamples(t *tracer, c tapejuke.Config) (time.Duration, time.Duration, error) {
	sc, err := simConfig(c, tapemodel.PositionerByName(c.DriveProfile))
	if err != nil {
		return 0, 0, err
	}
	lc, _, err := sc.LayoutConfig()
	if err != nil {
		return 0, 0, err
	}
	ls := t.begin(spanLayoutBuild)
	_, err = layout.Build(lc)
	t.end(ls)
	if err != nil {
		return 0, 0, err
	}
	cm := &sched.CostModel{Prof: sc.Profile, BlockMB: sc.BlockMB}
	ts := t.begin(spanTableBuild)
	cm.EnableTable(int(sc.TapeCapMB / sc.BlockMB))
	t.end(ts)
	return time.Duration(t.dur(ls)), time.Duration(t.dur(ts)), nil
}

// traced runs seed k on the traced path: the same configuration on a
// sim.Session with the scheduler, arrival process and block source behind
// timing wrappers.
func (l *libTarget) traced(k int, ref any, tr *traceState) (time.Duration, error) {
	c := &l.cfgs[k]
	if l.sess == nil {
		l.prof = tapemodel.PositionerByName(c.DriveProfile)
		l.sess = sim.NewSession()
	}
	sc, err := simConfig(*c, l.prof)
	if err != nil {
		return 0, err
	}
	if l.lay == nil {
		lc, _, err := sc.LayoutConfig()
		if err != nil {
			return 0, err
		}
		if l.lay, err = layout.Build(lc); err != nil {
			return 0, err
		}
	}
	t := tr.start(1)[0]
	arr, err := arrivalsFor(&sc)
	if err != nil {
		return 0, err
	}
	src, err := sourceFor(&sc, l.lay)
	if err != nil {
		return 0, err
	}
	sc.Arrivals = &tracedArrivals{inner: arr, t: t}
	sc.Source = &tracedSource{inner: src, t: t}
	if sc.Scheduler, err = l.scheduler(c.Algorithm, t, tr.wrap); err != nil {
		return 0, err
	}
	if sc.Drives > 1 {
		// The other drives get the same algorithm, so the wrapper check
		// made on drive 0's scheduler covers them.
		sc.SchedulerFactory = func() sched.Scheduler {
			s, err := tapejuke.NewScheduler(c.Algorithm)
			if err != nil {
				panic(err) // unreachable: l.scheduler resolved the same algorithm
			}
			return tr.wrap(s, t)
		}
	}
	start := processCPU()
	root := t.begin(spanRun)
	res, err := l.sess.Run(sc)
	t.end(root)
	host := processCPU() - start
	if err != nil {
		return 0, err
	}
	if d := diffFields(ref, res); d != "" {
		return 0, fmt.Errorf("fidelity: traced result differs from the untraced one at Result%s", d)
	}
	tr.finish(k, res.TotalArrivals)
	return host, nil
}

// scheduler returns drive 0's traced scheduler under the Runner's reuse
// rules: a single-drive run reuses a stateless or resettable scheduler
// (resetting it through the wrapper), a multi-drive run builds a fresh one.
func (l *libTarget) scheduler(alg tapejuke.Algorithm, t *tracer, wrap wrapFunc) (sched.Scheduler, error) {
	if l.cfgs[0].Drives <= 1 && l.schd != nil && reusable(l.inner) {
		if rr, ok := l.schd.(sched.RunResetter); ok {
			rr.ResetRun()
		}
		return l.schd, nil
	}
	inner, err := tapejuke.NewScheduler(alg)
	if err != nil {
		return nil, err
	}
	schd, err := wrapChecked(wrap, inner, t)
	if err != nil {
		return nil, err
	}
	l.inner, l.schd = inner, schd
	return schd, nil
}

// reusable mirrors the Runner's rule for serving another run with the
// same scheduler instance.
func reusable(s sched.Scheduler) bool {
	switch s.(type) {
	case *sched.FIFO, *sched.Static, *sched.Dynamic, sched.RunResetter:
		return true
	}
	return false
}

// record runs seed k once more with an event recorder attached; the
// recorder must not change the result. The stream's request ledger must
// match the Result, and single-drive write-free streams must replay under
// trace.Verify.
func (l *libTarget) record(k int, ref any) (*recorder, error) {
	c := l.cfgs[k]
	check := verifiable(&c)
	ev := &recorder{keep: check}
	c.Observer = ev
	res, err := tapejuke.NewRunner().Run(c)
	if err != nil {
		return nil, err
	}
	if d := diffFields(ref, res); d != "" {
		return nil, fmt.Errorf("observer changed the result at Result%s", d)
	}
	if err := ev.checkLedger(res); err != nil {
		return nil, err
	}
	if check {
		if err := ev.verify(&c); err != nil {
			return nil, err
		}
	}
	return ev, nil
}

func (l *libTarget) completed(res any) int64 { return res.(*tapejuke.Result).Completed }

func (l *libTarget) simulated(res any) map[string]float64 {
	r := res.(*tapejuke.Result)
	return map[string]float64{
		"sim_throughput_kbps": r.ThroughputKBps,
		"sim_p50_response_s":  r.P50ResponseSec,
		"sim_p99_response_s":  r.P99ResponseSec,
		"sim_served_frac": servedFrac(r.TotalCompleted,
			r.TotalCompleted+r.Expired+r.Shed+r.Rejected+r.Unserviceable),
		"sim_availability": r.Availability,
	}
}

// servedFrac is completed over attempted requests, where every expired,
// shed, rejected or unserviceable request is an attempt that failed.
// Requests still outstanding at the horizon have no outcome yet.
func servedFrac(completed, attempted int64) float64 {
	return ratio(float64(completed), float64(attempted))
}

func (l *libTarget) layers(res any) map[string]float64 {
	r := res.(*tapejuke.Result)
	drives := max(l.cfgs[0].Drives, 1)
	m := driveBuckets([]*tapejuke.Result{r}, drives)
	addResultLayers(m, []*tapejuke.Result{r})
	// A single library is the one-shard farm: balanced, nothing to fail
	// over to.
	m["farm.request_imbalance"] = 1
	m["farm.queue_imbalance"] = 1
	m["farm.failover_frac"] = 0
	return m
}

// driveBuckets splits the drive-seconds of one or more libraries into the
// simulator's named buckets. Each bucket is summed over the whole run, so
// the denominator is drives x simulated seconds.
func driveBuckets(rs []*tapejuke.Result, drives int) map[string]float64 {
	var den, sw, loc, rd, idle, wr, flt, rep, scr, down float64
	for _, r := range rs {
		den += float64(drives) * r.SimSeconds
		sw += r.SwitchSeconds
		loc += r.LocateSeconds
		rd += r.ReadSeconds
		idle += r.IdleSeconds
		wr += r.WriteSeconds
		flt += r.FaultSeconds
		rep += r.RepairSeconds
		scr += r.ScrubSeconds
		down += r.DriveRepairSeconds
	}
	m := map[string]float64{
		"drive.switch_frac":   ratio(sw, den),
		"drive.locate_frac":   ratio(loc, den),
		"drive.transfer_frac": ratio(rd, den),
		"drive.idle_frac":     ratio(idle, den),
		"drive.write_frac":    ratio(wr, den),
		"drive.fault_frac":    ratio(flt, den),
		"drive.repair_frac":   ratio(rep, den),
		"drive.scrub_frac":    ratio(scr, den),
		"drive.down_frac":     ratio(down, den),
	}
	m["drive.unattributed_frac"] = 1 - ratio(sw+loc+rd+idle+wr+flt+rep+scr+down, den)
	return m
}

// addResultLayers adds the simulated per-layer counts of one or more
// libraries: switches, writes, overload, faults, repair and health.
func addResultLayers(m map[string]float64, rs []*tapejuke.Result) {
	var arr, attempted, done, switches, flushed, expired, shed, retries, rebuilt, evac float64
	var delayW, delay, mttrW, mttr, mttdW, mttd, latent, latentScrub float64
	for _, r := range rs {
		arr += float64(r.TotalArrivals)
		attempted += float64(r.TotalArrivals + r.Rejected)
		done += float64(r.Completed)
		switches += float64(r.TapeSwitches)
		flushed += float64(r.WritesFlushed)
		delay += float64(r.WritesFlushed) * r.MeanWriteDelaySec
		delayW += float64(r.WritesFlushed)
		expired += float64(r.Expired)
		shed += float64(r.Shed)
		retries += float64(r.Retries)
		rebuilt += float64(r.RepairedCopies)
		mttr += float64(r.RepairedCopies) * r.MeanTimeToRepairSec
		mttrW += float64(r.RepairedCopies)
		mttd += float64(r.LatentErrorsFound) * r.MeanTimeToDetectSec
		mttdW += float64(r.LatentErrorsFound)
		latent += float64(r.LatentErrorsFound)
		latentScrub += float64(r.LatentFoundByScrub)
		evac += float64(r.EvacuatedTapes)
	}
	m["sched.switches_per_kreq"] = 1000 * ratio(switches, done)
	m["writes.flushed_per_kreq"] = 1000 * ratio(flushed, arr)
	m["writes.mean_delay_s"] = ratio(delay, delayW)
	m["overload.expired_frac"] = ratio(expired, attempted)
	m["overload.shed_frac"] = ratio(shed, attempted)
	m["faults.retries_per_kreq"] = 1000 * ratio(retries, arr)
	m["repair.copies_rebuilt"] = rebuilt
	m["repair.mttr_s"] = ratio(mttr, mttrW)
	m["health.mttd_s"] = ratio(mttd, mttdW)
	m["health.latent_found_by_scrub_frac"] = ratio(latentScrub, latent)
	m["health.evacuated_tapes"] = evac
}
