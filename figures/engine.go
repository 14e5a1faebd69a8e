package figures

import (
	"errors"
	"fmt"
	"io"
	"math"

	"tapejuke"
	"tapejuke/internal/pool"
	"tapejuke/internal/stats"
)

// job is one simulated point of a figure (before replication fan-out).
// value, when non-nil, extracts an extra metric from each run's result; the
// replication mean lands in the row's Value column.
type job struct {
	series string
	param  float64
	cfg    tapejuke.Config
	value  func(*tapejuke.Result) float64
}

// plan is a figure as data: its header (a Figure without rows) and the
// simulation jobs whose rows, one per job in job order, become its Rows.
// finish, when set, builds or reshapes the rows: the analytic figures
// (fig1, fig10a) build them, fig10b derives its ratios from them, and the
// farm adds its RunFarm points. Plans exist so All can pour every figure's
// jobs into one shared worker pool with no barrier between figures: a slow
// straggler of one figure overlaps the next figure's work instead of
// idling the pool.
type plan struct {
	fig    Figure
	jobs   []job
	finish func(*Figure) error
}

// runPlan executes a single figure's plan on its own grid.
func runPlan(o Options, pf func(Options) (plan, error)) (*Figure, error) {
	o = o.withDefaults()
	p, err := pf(o)
	if err != nil {
		return nil, err
	}
	rows, err := runGrid(p.jobs, o.Workers, o.Replications)
	if err != nil {
		return nil, err
	}
	return p.figure(rows)
}

// figure fills the plan's header with its jobs' rows and applies finish.
func (p plan) figure(rows []Row) (*Figure, error) {
	f := p.fig
	f.Rows = rows
	if p.finish != nil {
		if err := p.finish(&f); err != nil {
			return nil, err
		}
	}
	return &f, nil
}

// runGrid executes every (job, replication) task on the worker pool and
// reduces the results to one mean row per job.
//
// Each distinct configuration runs once: tasks whose seeded configs are
// equal -- the same point asked for by two figures, or by two series of
// one -- share one run's Result, which is exactly what a second run would
// return (a Runner's run equals a fresh one).
//
// Determinism: each run writes into its own slot of the results array
// (disjoint writes, no shared accumulators, no locks), and the reduction
// below runs sequentially in job-then-replication input order, so the
// output -- including replication means and confidence intervals, which
// are sensitive to floating-point summation order -- is byte-identical at
// every worker count.
//
// Each worker owns one tapejuke.Runner for the lifetime of the grid, so
// data layouts, cost tables, and simulator scratch are reused across every
// run the worker claims rather than rebuilt per run.
//
// The first failure makes workers stop claiming runs; already-claimed
// runs finish, and every recorded error is returned joined, in run order,
// each carrying the series/param/replication context of the first task
// that asked for the run.
func runGrid(jobs []job, workers, reps int) ([]Row, error) {
	if reps < 1 {
		reps = 1
	}
	runs, runOf := distinctRuns(jobs, reps)
	results := make([]*tapejuke.Result, len(runs))
	errs := pool.Each(len(runs), workers, tapejuke.NewRunner, func(r *tapejuke.Runner, k int) error {
		res, err := r.Run(runs[k].cfg)
		if err != nil {
			t := runs[k].task
			return fmt.Errorf("%s param %v rep %d: %w", jobs[t/reps].series, jobs[t/reps].param, t%reps, err)
		}
		results[k] = res
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	rows := make([]Row, len(jobs))
	for i := range jobs {
		var tp, rpm, resp, val stats.Accumulator
		for rep := 0; rep < reps; rep++ {
			res := results[runOf[i*reps+rep]]
			tp.Add(res.ThroughputKBps)
			rpm.Add(res.RequestsPerMinute)
			resp.Add(res.MeanResponseSec)
			if jobs[i].value != nil {
				val.Add(jobs[i].value(res))
			}
		}
		rows[i] = Row{
			Series:            jobs[i].series,
			Param:             jobs[i].param,
			ThroughputKBps:    tp.Mean(),
			RequestsPerMinute: rpm.Mean(),
			MeanResponseSec:   resp.Mean(),
		}
		if jobs[i].value != nil {
			rows[i].Value = val.Mean()
		}
		if reps > 1 {
			n := math.Sqrt(float64(reps))
			rows[i].ThroughputCI95 = 1.96 * tp.StdDev() / n
			rows[i].ResponseCI95 = 1.96 * resp.StdDev() / n
		}
	}
	return rows, nil
}

// gridRun is one distinct simulation of a grid: its seeded config and the
// first task (job*reps + replication) that asks for it.
type gridRun struct {
	cfg  tapejuke.Config
	task int
}

// distinctRuns lists the distinct seeded configs of every (job,
// replication) task in first-asked order, and maps each task to its run;
// reps must be at least 1. Replication seeds are spaced 7919 (the 1000th
// prime) apart: far enough that the streams a run derives from its seed
// (workload at Seed, arrivals at Seed+1, writes at Seed+2, bursts at
// Seed+5) never collide across replications, and fixed so recorded
// figures stay reproducible. See DESIGN.md section 13.
func distinctRuns(jobs []job, reps int) ([]gridRun, []int) {
	var runs []gridRun
	runOf := make([]int, len(jobs)*reps)
	index := make(map[tapejuke.Config]int)
	for t := range runOf {
		cfg := jobs[t/reps].cfg
		cfg.Seed += int64(t%reps) * 7919
		k, ok := index[cfg]
		if !ok {
			k = len(runs)
			index[cfg] = k
			runs = append(runs, gridRun{cfg, t})
		}
		runOf[t] = k
	}
	return runs, runOf
}

// WriteTSV writes the figure in cmd/figures' tab-separated format: a
// commented "# id: title" line, a header, one line per row, and a trailing
// blank line. The confidence-interval columns appear when any row carries
// intervals or forceCI is set (cmd/figures forces them whenever -reps > 1
// so the column set never depends on the data).
func (f *Figure) WriteTSV(w io.Writer, forceCI bool) error {
	if _, err := fmt.Fprintf(w, "# %s: %s\n", f.ID, f.Title); err != nil {
		return err
	}
	valueCol := f.ValueName
	if valueCol == "" {
		valueCol = "-"
	}
	hasCI := forceCI
	for _, r := range f.Rows {
		if r.ThroughputCI95 > 0 || r.ResponseCI95 > 0 {
			hasCI = true
			break
		}
	}
	if hasCI {
		if _, err := fmt.Fprintf(w, "figure\tseries\t%s\tthroughput_kbps\tthroughput_ci95\treq_per_min\tmean_response_s\tresponse_ci95\t%s\n",
			f.ParamName, valueCol); err != nil {
			return err
		}
		for _, r := range f.Rows {
			if _, err := fmt.Fprintf(w, "%s\t%s\t%g\t%.2f\t%.2f\t%.4f\t%.1f\t%.1f\t%.4f\n",
				f.ID, r.Series, r.Param,
				r.ThroughputKBps, r.ThroughputCI95, r.RequestsPerMinute,
				r.MeanResponseSec, r.ResponseCI95, r.Value); err != nil {
				return err
			}
		}
	} else {
		if _, err := fmt.Fprintf(w, "figure\tseries\t%s\tthroughput_kbps\treq_per_min\tmean_response_s\t%s\n",
			f.ParamName, valueCol); err != nil {
			return err
		}
		for _, r := range f.Rows {
			if _, err := fmt.Fprintf(w, "%s\t%s\t%g\t%.2f\t%.4f\t%.1f\t%.4f\n",
				f.ID, r.Series, r.Param,
				r.ThroughputKBps, r.RequestsPerMinute, r.MeanResponseSec, r.Value); err != nil {
				return err
			}
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}
