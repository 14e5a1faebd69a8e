package main

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"time"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/workload"
)

// spanName labels a layer boundary the traced run times.
type spanName uint8

const (
	spanRun           spanName = iota // one simulation (Session.Run); a farm shard's whole run
	spanReschedule                    // Scheduler.Reschedule
	spanOnArrival                     // Scheduler.OnArrival
	spanArrivalsNext                  // Arrivals.Next
	spanSourceNext                    // Source.Next
	spanLayoutBuild                   // layout.Build
	spanTableBuild                    // CostModel.EnableTable
	spanFarm                          // one whole traced farm run
	spanFarmSetup                     // the farm pre-pass, up to the first shard run
	spanFarmPlacement                 // placement: base and shard layouts
	spanFarmDeaths                    // tape-death projection
	spanFarmSplit                     // farm.Split
	spanFarmShards                    // the parallel shard phase
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "sched.reschedule", "sched.on_arrival", "workload.arrivals_next",
	"workload.source_next", "layout.build", "tapemodel.table_build", "farm",
	"farm.setup", "farm.placement", "farm.deaths", "farm.split", "farm.shards",
}

func (n spanName) String() string { return spanNames[n] }

// span is one timed interval. Parent indexes the tracer's own span list
// (-1 for a root); run is shared by every span of one traced run.
type span struct {
	name       spanName
	parent     int32
	run        int32
	start, end int64 // nanoseconds since the tracer's epoch
}

// tracer keeps spans in memory. It is owned by one goroutine: the farm
// gives every shard worker its own tracer and merges them afterwards.
type tracer struct {
	epoch time.Time
	run   int32
	cur   int32 // innermost open span, -1 for none
	spans []span

	// Counts taken at the same boundaries as the spans.
	sweeps    int64 // Reschedule calls that returned a sweep
	sweepReqs int64 // requests in those sweeps when returned
	absorbed  int64 // OnArrival calls that took the request
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch, cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(n spanName) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{name: n, parent: t.cur, run: t.run, start: t.now()})
	t.cur = i
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int32) {
	t.spans[i].end = t.now()
	t.cur = t.spans[i].parent
}

// reset drops the recorded spans and counts, keeping the storage.
func (t *tracer) reset(run int32) {
	t.spans = t.spans[:0]
	t.cur = -1
	t.run = run
	t.sweeps, t.sweepReqs, t.absorbed = 0, 0, 0
}

func (t *tracer) dur(i int32) int64 { return t.spans[i].end - t.spans[i].start }

// spanTotals aggregates spans by name: count, summed duration and summed
// self time (duration minus the time covered by child spans).
type spanTotals struct {
	count [numSpanNames]int64
	total [numSpanNames]int64
	self  [numSpanNames]int64
}

// fold adds every span of t to the totals. Children never overlap within
// one tracer (one goroutine, strictly nested calls), so a parent's covered
// time is the sum of its children's durations.
func (s *spanTotals) fold(t *tracer) {
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		d := sp.end - sp.start
		s.count[sp.name]++
		s.total[sp.name] += d
		s.self[sp.name] += d - child[i]
	}
}

func (s *spanTotals) add(o *spanTotals) {
	for i := range s.count {
		s.count[i] += o.count[i]
		s.total[i] += o.total[i]
		s.self[i] += o.self[i]
	}
}

// writeSpans writes spans as tab-separated lines: run id, span id, parent
// id, name, start and end in nanoseconds since the benchmark's epoch.
// Span ids are unique across the tracers; a root span of a shard tracer
// names the farm's shard-phase span as its parent.
func writeSpans(w io.Writer, ts []*tracer, rootParent []int64) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "run\tspan\tparent\tname\tstart_ns\tend_ns")
	var base int64
	for k, t := range ts {
		for i, sp := range t.spans {
			parent := rootParent[k]
			if sp.parent >= 0 {
				parent = base + int64(sp.parent)
			}
			fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", sp.run, base+int64(i), parent, sp.name, sp.start, sp.end)
		}
		base += int64(len(t.spans))
	}
	return bw.Flush()
}

// evictor mirrors the kernel's unexported probe for schedulers that want
// to hear about requests cancelled out of their sweep.
type evictor interface {
	OnEvict(st *sched.State, r *sched.Request)
}

// tracedScheduler times Reschedule and OnArrival. The kernel and the
// runner probe a scheduler for optional interfaces, so the wrapper
// forwards every one of them: RunResetter (reuse across runs),
// CopyObserver (repair mints or reclaims a copy) and the evictor (a
// deadline cancels a request out of the sweep). Forwarding to an inner
// scheduler that lacks one is a no-op, which is what the kernel does when
// the probe fails.
type tracedScheduler struct {
	inner sched.Scheduler
	t     *tracer
}

var (
	_ sched.RunResetter  = (*tracedScheduler)(nil)
	_ sched.CopyObserver = (*tracedScheduler)(nil)
	_ evictor            = (*tracedScheduler)(nil)
)

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) Reschedule(st *sched.State) (int, *sched.Sweep, bool) {
	i := s.t.begin(spanReschedule)
	tape, sw, ok := s.inner.Reschedule(st)
	s.t.end(i)
	if ok {
		s.t.sweeps++
		s.t.sweepReqs += int64(sw.Len())
	}
	return tape, sw, ok
}

func (s *tracedScheduler) OnArrival(st *sched.State, r *sched.Request) bool {
	i := s.t.begin(spanOnArrival)
	ok := s.inner.OnArrival(st, r)
	s.t.end(i)
	if ok {
		s.t.absorbed++
	}
	return ok
}

func (s *tracedScheduler) ResetRun() {
	if rr, ok := s.inner.(sched.RunResetter); ok {
		rr.ResetRun()
	}
}

func (s *tracedScheduler) OnCopyAdded(st *sched.State, b layout.BlockID, c layout.Replica) {
	if co, ok := s.inner.(sched.CopyObserver); ok {
		co.OnCopyAdded(st, b, c)
	}
}

func (s *tracedScheduler) OnCopyRemoved(st *sched.State, b layout.BlockID, c layout.Replica) {
	if co, ok := s.inner.(sched.CopyObserver); ok {
		co.OnCopyRemoved(st, b, c)
	}
}

func (s *tracedScheduler) OnEvict(st *sched.State, r *sched.Request) {
	if ev, ok := s.inner.(evictor); ok {
		ev.OnEvict(st, r)
	}
}

// wrapFunc builds the traced stand-in for a scheduler; the package's test
// substitutes a defective one to prove the fidelity check catches it.
type wrapFunc func(inner sched.Scheduler, t *tracer) sched.Scheduler

func traceScheduler(inner sched.Scheduler, t *tracer) sched.Scheduler {
	return &tracedScheduler{inner: inner, t: t}
}

// optionalProbes are the type assertions the kernel and the runner make on
// a scheduler.
var optionalProbes = []struct {
	name string
	has  func(sched.Scheduler) bool
}{
	{"sched.RunResetter", func(s sched.Scheduler) bool { _, ok := s.(sched.RunResetter); return ok }},
	{"sched.CopyObserver", func(s sched.Scheduler) bool { _, ok := s.(sched.CopyObserver); return ok }},
	{"OnEvict", func(s sched.Scheduler) bool { _, ok := s.(evictor); return ok }},
}

// checkWrapper is the half of the fidelity check that the results alone
// cannot do: the traced stand-in must answer every optional-interface probe
// its inner scheduler answers. Today's kernel never lets a hidden
// CopyObserver change a result (repair mints copies only from an idle
// drive, and a copy a sweep targets is never reclaimed or evacuated), so a
// wrapper that dropped it would pass the result comparison and silently
// diverge once that changes.
func checkWrapper(inner, wrapped sched.Scheduler) error {
	for _, p := range optionalProbes {
		if p.has(inner) && !p.has(wrapped) {
			return fmt.Errorf("fidelity: the traced scheduler hides %s, which %s implements", p.name, inner.Name())
		}
	}
	return nil
}

// wrapChecked wraps inner and checks the wrapper with checkWrapper.
func wrapChecked(wrap wrapFunc, inner sched.Scheduler, t *tracer) (sched.Scheduler, error) {
	w := wrap(inner, t)
	return w, checkWrapper(inner, w)
}

// tracedArrivals times Arrivals.Next.
type tracedArrivals struct {
	inner workload.Arrivals
	t     *tracer
}

func (a *tracedArrivals) Closed() bool      { return a.inner.Closed() }
func (a *tracedArrivals) InitialCount() int { return a.inner.InitialCount() }

func (a *tracedArrivals) Next() float64 {
	i := a.t.begin(spanArrivalsNext)
	v := a.inner.Next()
	a.t.end(i)
	return v
}

// tracedSource times Source.Next. Rand must return the inner stream: the
// kernel binds it for reservoir sampling, and a second stream would change
// which responses the percentiles see.
type tracedSource struct {
	inner workload.Source
	t     *tracer
}

func (s *tracedSource) Rand() *rand.Rand { return s.inner.Rand() }

func (s *tracedSource) Next() layout.BlockID {
	i := s.t.begin(spanSourceNext)
	b := s.inner.Next()
	s.t.end(i)
	return b
}
