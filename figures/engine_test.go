package figures

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tapejuke"
)

// TestGridDeterministicAcrossWorkers pins the engine's central guarantee:
// the rows -- including replication means and confidence intervals, which
// are sensitive to floating-point summation order -- are identical at every
// worker count, because tasks write disjoint slots and the reduction is
// sequential in input order.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	o := tiny()
	o.Replications = 2
	p, err := planFig6(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	var ref []Row
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		rows, err := runGrid(p.jobs, workers, o.Replications)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Fatalf("workers=%d produced different rows", workers)
		}
	}
}

// TestAllTSVByteIdenticalAcrossWorkers drives the same guarantee end to
// end: the full figure set, serialized, is byte-identical at every worker
// count.
func TestAllTSVByteIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("generates every figure repeatedly")
	}
	render := func(workers int) string {
		o := tiny()
		o.Workers = workers
		figs, err := All(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		for _, f := range figs {
			if err := f.WriteTSV(&buf, false); err != nil {
				t.Fatal(err)
			}
		}
		return buf.String()
	}
	ref := render(1)
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := render(workers); got != ref {
			t.Fatalf("workers=%d produced different TSV", workers)
		}
	}
}

// TestGridErrorAggregation: a failing job stops the grid, and the returned
// error carries the series/param/replication context of every recorded
// failure.
func TestGridErrorAggregation(t *testing.T) {
	good := base(tiny().withDefaults())
	good.HorizonSec = 10_000
	bad := good
	bad.Algorithm = "no-such-algorithm"
	alsoBad := bad
	alsoBad.Seed++ // a distinct run, not a repeat the grid would share
	jobs := []job{
		{series: "ok", param: 1, cfg: good},
		{series: "broken", param: 32, cfg: bad},
		{series: "also-broken", param: 64, cfg: alsoBad},
	}
	_, err := runGrid(jobs, 1, 1)
	if err == nil {
		t.Fatal("grid with an invalid job succeeded")
	}
	if !strings.Contains(err.Error(), "broken param 32 rep 0") {
		t.Errorf("error lacks series/param/rep context: %v", err)
	}
	// With one worker the failure stops claiming before the third job, so
	// only the first failure is reported.
	if strings.Contains(err.Error(), "also-broken") {
		t.Errorf("worker kept claiming tasks after a failure: %v", err)
	}
}

// TestRunnerSharedAcrossSeries: the grid's per-worker Runner must produce
// results identical to fresh runs even though consecutive tasks reuse the
// same simulation context across different series and parameters.
func TestRunnerSharedAcrossSeries(t *testing.T) {
	o := tiny()
	p, err := planFig9(o.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	rows, err := runGrid(p.jobs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range p.jobs {
		res, err := tapejuke.Run(j.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].ThroughputKBps != res.ThroughputKBps ||
			rows[i].MeanResponseSec != res.MeanResponseSec {
			t.Fatalf("%s param %v: grid (%v, %v) != fresh run (%v, %v)",
				j.series, j.param,
				rows[i].ThroughputKBps, rows[i].MeanResponseSec,
				res.ThroughputKBps, res.MeanResponseSec)
		}
	}
}

func TestWriteTSVGolden(t *testing.T) {
	f := &Figure{
		ID:        "figX",
		Title:     "A test figure",
		ParamName: "queue_length",
		Rows: []Row{
			{Series: "a", Param: 20, ThroughputKBps: 123.456, RequestsPerMinute: 1.23456, MeanResponseSec: 45.67},
		},
	}
	var buf bytes.Buffer
	if err := f.WriteTSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	want := "# figX: A test figure\n" +
		"figure\tseries\tqueue_length\tthroughput_kbps\treq_per_min\tmean_response_s\t-\n" +
		"figX\ta\t20\t123.46\t1.2346\t45.7\t0.0000\n\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTSV:\n%q\nwant:\n%q", got, want)
	}

	// forceCI switches to the interval column set even when all intervals
	// are zero, so -reps output keeps a stable schema.
	buf.Reset()
	if err := f.WriteTSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	want = "# figX: A test figure\n" +
		"figure\tseries\tqueue_length\tthroughput_kbps\tthroughput_ci95\treq_per_min\tmean_response_s\tresponse_ci95\t-\n" +
		"figX\ta\t20\t123.46\t0.00\t1.2346\t45.7\t0.0\t0.0000\n\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTSV with forceCI:\n%q\nwant:\n%q", got, want)
	}
}

// TestLTO9Figure: the LTO-9 extension figure is selectable by name and
// carries the three series, including the RAO variant.
func TestLTO9Figure(t *testing.T) {
	f, err := ByID("lto9", tiny())
	if err != nil {
		t.Fatal(err)
	}
	ss := seriesSet(f)
	for _, s := range []string{"dyn", "env-NR9", "env-NR9-rao"} {
		if ss[s] == 0 {
			t.Errorf("missing series %s (have %v)", s, ss)
		}
	}
	for _, r := range f.Rows {
		if r.ThroughputKBps <= 0 {
			t.Errorf("%s param %v has no throughput", r.Series, r.Param)
		}
	}
}

// TestGridRunsEachDistinctConfigOnce pins the grid's run counts: the
// health figure asks for each of its 15 configs twice (availability and
// MTTD series), and All's 442 tasks hold 400 distinct configs. Tasks that
// share a run get its result in every row.
func TestGridRunsEachDistinctConfigOnce(t *testing.T) {
	o := Options{}.withDefaults()
	count := func(pfs ...func(Options) (plan, error)) (tasks, runs int) {
		var jobs []job
		for _, pf := range pfs {
			p, err := pf(o)
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, p.jobs...)
		}
		rs, runOf := distinctRuns(jobs, o.Replications)
		for task, k := range runOf {
			if rs[k].task > task || rs[k].cfg != jobs[task].cfg {
				t.Fatalf("task %d maps to run %d, first asked by task %d with another config", task, k, rs[k].task)
			}
		}
		return len(runOf), len(rs)
	}
	if tasks, runs := count(planHealth); tasks != 30 || runs != 15 {
		t.Errorf("health: %d tasks in %d runs, want 30 in 15", tasks, runs)
	}
	if tasks, runs := count(allPlans...); tasks != 442 || runs != 400 {
		t.Errorf("All: %d tasks in %d runs, want 442 in 400", tasks, runs)
	}

	cfg := base(tiny().withDefaults())
	cfg.HorizonSec = 10_000
	rows, err := runGrid([]job{{series: "a", cfg: cfg}, {series: "b", cfg: cfg}}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ThroughputKBps != rows[1].ThroughputKBps || rows[0].ThroughputCI95 != rows[1].ThroughputCI95 {
		t.Errorf("two jobs of one config read %+v and %+v", rows[0], rows[1])
	}
}
