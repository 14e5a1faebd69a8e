package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"tapejuke"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// tinyScale shrinks every workload's horizon so a test run takes well
// under a second per workload.
const tinyScale = 0.02

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, timed
// and traced, and checks that all checks pass and that each run emits
// exactly the metrics BENCHMARK.json declares, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, bw := range bf.Workloads {
		if bw.Name != workloads[i].name || bw.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bw.Name, bw.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep := bench(w, options{seed: 3, seconds: 0.01, scale: tinyScale, trace: traced, wrap: traceScheduler})
			if rep.err != nil || rep.failed != 0 {
				t.Fatalf("%s (trace %v): %d of %d runs failed: %v", w.name, traced, rep.failed, rep.attempted, rep.err)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(got) != len(rep.metrics) {
				t.Errorf("%s (trace %v): a metric is emitted twice", w.name, traced)
			}
			for name, unit := range want {
				if gu, ok := got[name]; !ok || gu != unit {
					t.Errorf("%s (trace %v): metric %s emitted with unit %q (present %v), want %q", w.name, traced, name, gu, ok, unit)
				}
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("%s (trace %v): metric %s is not declared in BENCHMARK.json", w.name, traced, name)
				}
			}
			var b strings.Builder
			if err := printReport(&b, rep); err != nil {
				t.Errorf("%s (trace %v): %v", w.name, traced, err)
			}
		}
	}
}

// copyObserverHider forwards everything the traced wrapper does except
// the CopyObserver methods, the mistake the fidelity check exists for.
type copyObserverHider struct{ s *tracedScheduler }

func (h copyObserverHider) Name() string { return h.s.Name() }
func (h copyObserverHider) Reschedule(st *sched.State) (int, *sched.Sweep, bool) {
	return h.s.Reschedule(st)
}
func (h copyObserverHider) OnArrival(st *sched.State, r *sched.Request) bool {
	return h.s.OnArrival(st, r)
}
func (h copyObserverHider) ResetRun()                                 { h.s.ResetRun() }
func (h copyObserverHider) OnEvict(st *sched.State, r *sched.Request) { h.s.OnEvict(st, r) }

// TestFidelityCatchesHiddenCopyObserver runs the traced path of every
// workload behind a wrapper that hides sched.CopyObserver from the kernel:
// the benchmark must fail rather than report numbers from a traced run
// that is not the real one.
func TestFidelityCatchesHiddenCopyObserver(t *testing.T) {
	hide := func(inner sched.Scheduler, tr *tracer) sched.Scheduler {
		return copyObserverHider{&tracedScheduler{inner: inner, t: tr}}
	}
	for _, w := range workloads {
		rep := bench(w, options{seed: 3, seconds: 0.01, scale: tinyScale, trace: true, wrap: hide})
		if rep.err == nil || !strings.Contains(rep.err.Error(), "fidelity") || !strings.Contains(rep.err.Error(), "CopyObserver") {
			t.Errorf("%s: fidelity check did not catch the hidden CopyObserver: %v", w.name, rep.err)
		}
		if rep.failed == 0 {
			t.Errorf("%s: a failed fidelity check must count as a failed run", w.name)
		}
	}
}

// recordingScheduler is a stand-in inner scheduler that notes which
// optional calls reach it.
type recordingScheduler struct {
	sched.Scheduler
	calls []string
}

func (r *recordingScheduler) ResetRun() { r.calls = append(r.calls, "ResetRun") }
func (r *recordingScheduler) OnCopyAdded(*sched.State, layout.BlockID, layout.Replica) {
	r.calls = append(r.calls, "OnCopyAdded")
}
func (r *recordingScheduler) OnCopyRemoved(*sched.State, layout.BlockID, layout.Replica) {
	r.calls = append(r.calls, "OnCopyRemoved")
}
func (r *recordingScheduler) OnEvict(*sched.State, *sched.Request) {
	r.calls = append(r.calls, "OnEvict")
}

// TestTracedSchedulerForwards checks that the traced wrapper passes every
// optional call on to its inner scheduler, and that the wrapper check
// accepts it.
func TestTracedSchedulerForwards(t *testing.T) {
	inner := &recordingScheduler{}
	w := traceScheduler(inner, newTracer(time.Now()))
	if err := checkWrapper(inner, w); err != nil {
		t.Fatal(err)
	}
	w.(sched.RunResetter).ResetRun()
	w.(sched.CopyObserver).OnCopyAdded(nil, 0, layout.Replica{})
	w.(sched.CopyObserver).OnCopyRemoved(nil, 0, layout.Replica{})
	w.(evictor).OnEvict(nil, nil)
	want := "ResetRun OnCopyAdded OnCopyRemoved OnEvict"
	if got := strings.Join(inner.calls, " "); got != want {
		t.Fatalf("forwarded %q, want %q", got, want)
	}
}

// TestTracedSourceSharesRand pins the Source wrapper's contract: the
// kernel draws reservoir samples from Source.Rand, so the wrapper must
// hand out the inner stream itself.
func TestTracedSourceSharesRand(t *testing.T) {
	lay, err := layout.Build(layout.Config{Tapes: 2, TapeCapBlocks: 8, HotPercent: 25})
	if err != nil {
		t.Fatal(err)
	}
	c := closedEnvelopeNR9(1, tinyScale)
	sc, err := simConfig(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := sourceFor(&sc, lay)
	if err != nil {
		t.Fatal(err)
	}
	ts := &tracedSource{inner: src, t: newTracer(time.Now())}
	if ts.Rand() != src.Rand() {
		t.Fatal("traced source returns a different random stream")
	}
}

// TestVerifiedWorkloads pins which workloads replay their event streams
// under trace.Verify: every single-drive, write-free one, the farm's
// shards included.
func TestVerifiedWorkloads(t *testing.T) {
	want := map[string]bool{
		"closed-envelope-nr9":         true,
		"open-writes-overload-2drive": false,
		"open-faults-repair-scrub":    true,
		"farm-spread-failover":        true,
	}
	for _, w := range workloads {
		var c tapejuke.Config
		if w.farm != nil {
			c = w.farm(1, tinyScale).Base
		} else {
			c = w.lib(1, tinyScale)
		}
		if got := verifiable(&c); got != want[w.name] {
			t.Errorf("%s: verifiable = %v, want %v", w.name, got, want[w.name])
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, m, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || m != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, m, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 1 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

// TestAtRefScales pins the scaling rule: a time measured while the kernel
// ran at its reference time stands, one measured while it ran twice as
// slow on average is halved.
func TestAtRefScales(t *testing.T) {
	d := 10 * time.Millisecond
	if got := atRef(d, refKernel, refKernel); got != d {
		t.Errorf("atRef at reference speed = %v, want %v", got, d)
	}
	if got := atRef(d, refKernel, 3*refKernel); got != d/2 {
		t.Errorf("atRef at half speed = %v, want %v", got, d/2)
	}
}

// TestSpeedMeterReads checks that a reading times the kernel on the
// calling goroutine, and on every worker at once only where there are
// workers.
func TestSpeedMeterReads(t *testing.T) {
	if s := newSpeedMeter(0).read(); s.one <= 0 || s.all != 0 {
		t.Errorf("no workers: reading %+v, want one > 0 and all = 0", s)
	}
	if s := newSpeedMeter(2).read(); s.one <= 0 || s.all <= 0 {
		t.Errorf("two workers: reading %+v, want both > 0", s)
	}
}
