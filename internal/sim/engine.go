package sim

import (
	"fmt"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/workload"
)

// Run executes one simulation and returns its metrics.
func Run(cfg Config) (*Result, error) { return NewSession().Run(cfg) }

// newCostModel builds a cost model with its dense block-grid table enabled.
// The table devirtualizes the cost hot path and is bit-exact, so results
// are identical whether or not it builds (it declines serpentine profiles
// and inexact grids).
func newCostModel(prof tapemodel.Positioner, blockMB float64, maxBlocks int) *sched.CostModel {
	c := &sched.CostModel{Prof: prof, BlockMB: blockMB}
	c.EnableTable(maxBlocks)
	return c
}

// reservoirK is the percentile reservoir's sample capacity.
const reservoirK = 4096

// engine is the state of one in-progress simulation: the shared scheduling
// state, one drive record per drive, the workload streams, and the metrics
// ledger. A single-drive jukebox is simply the one-drive case of the same
// event-calendar kernel (kernel.go).
type engine struct {
	cfg     Config
	sh      *sched.Shared
	drives  []drive
	gen     workload.Source
	arr     workload.Arrivals
	nextArr float64 // next undelivered external arrival time (+Inf closed)

	now         float64
	warmupEnd   float64
	outstanding int64
	nextID      int64

	// reqFree recycles Request structs whose previous occupant has left
	// the system, making steady-state request turnover allocation-free.
	reqFree []*sched.Request

	// intn is e.gen.Rand().Int63n, bound once; passing the bound method
	// value into Reservoir.Add avoids allocating a fresh closure per
	// completion.
	intn func(int64) int64

	// tally counts every event at issue; result() charges the Result
	// fields the event stream defines from it (Tally.Charge). res holds
	// the counters and drive-time buckets no event carries, charged where
	// they happen, and result() derives the means, percentiles, and
	// ratios. The accumulators below feed those derived figures.
	tally        Tally
	res          *Result
	resp         stats.Accumulator
	respSample   *stats.Reservoir
	queueAreaSec float64

	// Deferred observer events, sorted by time and then push order;
	// operations queue their interior and end-of-operation events at issue
	// time and the kernel releases them as the clock passes them (kernel.go).
	evq []Event

	writes *writeState    // write-model extension, nil when disabled
	flt    *faultState    // fault-model extension, nil when disabled
	ovl    *overloadState // overload-robustness extension, nil when disabled
	rep    *repairState   // self-healing replication extension, nil when disabled
	hlt    *healthState   // proactive media-health extension, nil when disabled
}

// newEngine assembles one run's state. sess supplies cached layouts and
// cost tables and recycled scratch (see Session); a fresh session builds
// everything anew, which is what the package-level Run uses.
func newEngine(cfg Config, sess *Session) (*engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Profile == nil {
		cfg.Profile = tapemodel.EXB8505XL()
	}
	if cfg.WarmupFrac == 0 {
		cfg.WarmupFrac = 0.05
	}
	if cfg.WriteMeanInterarrival > 0 && cfg.WriteReserveMB == 0 {
		cfg.WriteReserveMB = 256
	}
	layCfg, capBlocks, err := cfg.LayoutConfig()
	if err != nil {
		return nil, err
	}
	var lay *layout.Layout
	if cfg.Repair.Enabled() {
		// Repair mutates the layout in place, so a run with it enabled
		// must own a fresh instance rather than the session-shared one.
		lay, err = layout.Build(layCfg)
	} else {
		lay, err = sess.cachedLayout(layCfg)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	var gen workload.Source
	if cfg.Source != nil {
		gen = cfg.Source
	} else if cfg.ZipfS > 0 {
		zg, err := workload.NewZipfGeneratorRand(lay, cfg.ZipfS, sess.genRng(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		gen = zg
	} else {
		hg, err := workload.NewGeneratorRand(lay, cfg.ReadHotPercent, sess.genRng(cfg.Seed))
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		if err := hg.SetSequentialProb(cfg.SequentialProb); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
		gen = hg
	}
	arr := cfg.Arrivals
	if arr == nil {
		if arr, err = newArrivals(&cfg, sess); err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}
	}
	nd := cfg.Drives
	if nd < 1 {
		nd = 1
	}
	// The cost table (enabled inside newCostModel/cachedCosts) covers the
	// whole tape: data region plus write reserve.
	tableBlocks := int(cfg.TapeCapMB / cfg.BlockMB)
	costs := sess.cachedCosts(cfg.Profile, cfg.BlockMB, tableBlocks)
	sh := sess.sh
	if sh != nil {
		sh.Reset(lay, costs)
	} else {
		sh = &sched.Shared{Layout: lay, Costs: costs}
	}
	if nd > 1 {
		// The busy vector exists only with competing drives; the single-drive
		// fast path keeps Available to a nil check.
		sh.Busy = make([]bool, cfg.Tapes)
	}
	e := &engine{
		cfg:       cfg,
		sh:        sh,
		gen:       gen,
		arr:       arr,
		warmupEnd: cfg.Horizon * cfg.WarmupFrac,
		res:       &Result{ReadsPerTape: make([]int64, cfg.Tapes)},
	}
	// Adopt the session's recycled scratch: the request free list, the
	// reservoir with its sample buffers, the drive records, and the event
	// calendar's storage.
	e.reqFree, sess.reqFree = sess.reqFree, nil
	if r := sess.respSample; r != nil && r.K == reservoirK {
		r.Reset()
		e.respSample = r
	} else {
		e.respSample = stats.NewReservoir(reservoirK)
	}
	if cap(sess.drives) >= nd {
		e.drives = sess.drives[:nd]
	} else {
		e.drives = make([]drive, nd)
	}
	e.evq = sess.evq[:0]
	e.intn = e.gen.Rand().Int63n
	for i := range e.drives {
		s := cfg.Scheduler
		if i > 0 {
			// Schedulers are stateful; every extra drive gets a fresh
			// instance of the same algorithm.
			s = cfg.SchedulerFactory()
		}
		e.drives[i] = drive{
			st:       &sched.State{Shared: sh, Mounted: -1},
			schd:     s,
			failTape: -1,
		}
	}
	if err := e.initWrites(capBlocks); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := e.initFaults(capBlocks); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := e.initOverload(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e.initRepair()
	e.initHealth()
	// Seed the system: closed models start with the full queue present;
	// open models schedule their first Poisson arrival.
	for i := 0; i < arr.InitialCount(); i++ {
		sh.Pending = append(sh.Pending, e.newRequest(0))
	}
	e.nextArr = arr.Next()
	return e, nil
}

// newRequest mints a request for a randomly drawn block, reusing a recycled
// Request struct when one is free.
func (e *engine) newRequest(at float64) *sched.Request {
	e.nextID++
	e.res.TotalArrivals++
	e.outstanding++
	var r *sched.Request
	if n := len(e.reqFree); n > 0 {
		r = e.reqFree[n-1]
		e.reqFree[n-1] = nil
		e.reqFree = e.reqFree[:n-1]
	} else {
		r = new(sched.Request)
	}
	*r = sched.Request{ID: e.nextID, Block: e.gen.Next(), Arrival: at}
	e.assignDeadline(r)
	return r
}

// freeRequest returns a request that has left the system to the free list,
// first taking it off the deadline calendar if the calendar still holds it
// (a request completed, shed or abandoned before its deadline), so the
// calendar only ever holds requests still in the system.
func (e *engine) freeRequest(r *sched.Request) {
	if r.DeadlineSlot != 0 {
		e.ovl.dl.remove(r)
	}
	e.reqFree = append(e.reqFree, r)
}

// pumpArrivals delivers every external arrival due by now: first through
// the admission controller, then to the incremental schedulers, else to the
// pending list. External arrivals in a closed model are flash-crowd extras;
// they never respawn.
func (e *engine) pumpArrivals() {
	for e.nextArr <= e.now {
		at := e.nextArr
		e.nextArr = e.arr.Next()
		if !e.admitArrival() {
			continue
		}
		r := e.newRequest(at)
		if e.arr.Closed() {
			r.Ephemeral = true
		}
		e.deliver(r)
	}
	e.pumpWrites()
}

// deliver routes one new request through the incremental schedulers: it is
// offered to each drive executing a sweep, in drive order; the first
// acceptance wins, otherwise the request joins the shared pending list.
// With the fault model on, a request for a block with no readable copy left
// is abandoned immediately; a closed-model process then issues a fresh
// request (the respawn chain is bounded so heavy data loss cannot loop
// forever).
func (e *engine) deliver(r *sched.Request) {
	for tries := 0; ; tries++ {
		if e.flt == nil || e.sh.Serviceable(r.Block) {
			for i := range e.drives {
				dr := &e.drives[i]
				if dr.st.Active != nil && dr.schd.OnArrival(dr.st, r) {
					return
				}
			}
			e.sh.Pending = append(e.sh.Pending, r)
			return
		}
		if !e.leave(r, EventUnserviceable) || tries >= 100 {
			return
		}
		r = e.newRequest(e.now)
	}
}

// leave is the system's one exit. The caller has already taken r off the
// pending list, out of its sweep or off its drive; kind names the way out
// (EventComplete, EventExpire, EventShed or EventUnserviceable). leave
// emits that exit's event, which the tally counts, charges what the event
// does not carry, and recycles r -- unless a drive still holds r in fault
// limbo: the drive's settle dereferences it, and a recycled struct would
// alias a live request there, so r is marked Gone and requeueFaulted
// recycles it. It reports whether a closed-model process issues its next
// request now, which the caller delivers. Flash extras are ephemeral, and
// once every tape has failed no process has anything left to ask for.
func (e *engine) leave(r *sched.Request, kind EventKind) bool {
	e.outstanding--
	post := e.now > e.warmupEnd
	ev := Event{Kind: kind, Time: e.now, Tape: -1, Pos: -1, Request: r.ID}
	switch kind {
	case EventComplete:
		ev.Tape, ev.Pos = r.Target.Tape, r.Target.Pos
		if e.rep != nil {
			e.rep.heat.Touch(int(r.Block), e.now)
		}
		if post {
			rt := e.now - r.Arrival
			e.resp.Add(rt)
			e.respSample.Add(rt, e.intn)
			if r.FaultedAt > 0 {
				e.res.Rerouted++
				e.flt.recovery.Add(e.now - r.FaultedAt)
			}
		}
		if r.Deadline > 0 { // only the overload extension draws deadlines
			if e.now > r.Deadline {
				e.res.LateCompletions++
				if post {
					e.res.DeadlineMisses++
				}
			}
			if post {
				e.ovl.deadlinedPost++
			}
		}
	case EventExpire:
		if post {
			e.res.DeadlineMisses++
			e.ovl.deadlinedPost++
			e.noteQueueAge(e.now - r.Arrival)
		}
	case EventShed:
		if post {
			e.noteQueueAge(e.now - r.Arrival)
		}
	}
	e.push(ev)
	respawn := e.arr.Closed() && !r.Ephemeral && (e.flt == nil || e.flt.anyTapeUp())
	if r.Place == sched.Limbo {
		r.Place = sched.Gone
	} else {
		e.freeRequest(r)
	}
	return respawn
}

// result completes the ledger with the tallied fields and the figures
// derived from it: the measurement window, means, percentiles, and ratios.
func (e *engine) result() *Result {
	res := e.res
	e.tally.Charge(res)
	measured := e.now - e.warmupEnd
	if measured < 0 {
		measured = 0
	}
	res.SchedulerName = e.drives[0].schd.Name()
	res.SimSeconds = e.now
	res.MeasuredSeconds = measured
	res.MeanResponseSec = e.resp.Mean()
	res.MaxResponseSec = e.resp.Max()
	res.P50ResponseSec = e.respSample.Percentile(0.50)
	res.P95ResponseSec = e.respSample.Percentile(0.95)
	res.P99ResponseSec = e.respSample.Percentile(0.99)
	if measured > 0 {
		res.ThroughputKBps = float64(res.Completed) * e.cfg.BlockMB * 1024 / measured
		res.RequestsPerMinute = float64(res.Completed) * 60 / measured
	}
	if e.now > 0 {
		res.MeanQueueLen = e.queueAreaSec / e.now
	}
	if w := e.writes; w != nil {
		res.MeanWriteDelaySec = w.delay.Mean()
	}
	e.faultResult()
	if o := e.ovl; o != nil && o.deadlinedPost > 0 {
		res.DeadlineMissRate = float64(res.DeadlineMisses) / float64(o.deadlinedPost)
	}
	if rp := e.rep; rp != nil {
		res.RepairJobs = rp.pl.Created()
		res.MeanTimeToRepairSec = rp.mttr.Mean()
	}
	res.ScrubbedMB = float64(e.tally.Count[EventScrubRead]) * e.cfg.BlockMB
	return res
}
