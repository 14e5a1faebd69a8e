package sim

import (
	"math"
	"sort"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/workload"
)

// overloadState is the engine-side bookkeeping of the overload-robustness
// extensions: the deadline calendar, the admission controller, and the
// degradation counters. nil when deadlines, admission control, and
// degradation are all disabled, which keeps the overload-free hot path to a
// handful of nil checks (the same pattern as faultState). Its metrics are
// charged straight into the engine's Result.
type overloadState struct {
	ttl           *workload.TTLSampler // deadline assignment, nil when deadlines off
	dl            deadlineHeap         // outstanding deadlined requests, lazily pruned
	deadlinedPost int64                // post-warmup deadlined outcomes (completions + expiries)
}

// deadlineHeap is a monomorphic 4-ary min-heap of deadlined requests on
// (Deadline, ID) -- a total order, so pop order matches the binary
// interface heap it replaces. Requests that leave the system another way
// (completion, shedding, unserviceable) stay in the heap with Done set and
// are skipped lazily. OnCalendar mirrors heap membership so the request
// free list knows when a request is fully unreferenced.
type deadlineHeap []*sched.Request

func (h deadlineHeap) less(i, j int) bool {
	if h[i].Deadline != h[j].Deadline {
		return h[i].Deadline < h[j].Deadline
	}
	return h[i].ID < h[j].ID
}

func (h *deadlineHeap) push(r *sched.Request) {
	r.OnCalendar = true
	q := append(*h, r)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *deadlineHeap) pop() *sched.Request {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if q.less(j, best) {
				best = j
			}
		}
		if !q.less(best, i) {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	top.OnCalendar = false
	return top
}

// evictor is implemented by schedulers that want to hear about requests the
// engine cancels out of their in-flight sweep (deadline expiry), e.g. the
// envelope scheduler tightening its envelope without a rebuild.
type evictor interface {
	OnEvict(st *sched.State, r *sched.Request)
}

// initOverload wires the overload extensions into the engine. It must run
// before the initial request seeding so seeded requests draw deadlines.
func (e *engine) initOverload() error {
	cfg := e.cfg
	e.sh.AgeWeight = cfg.AgeWeight
	if !cfg.Deadlines.Enabled() && !cfg.Admission.Enabled() && !cfg.Degrade.Enabled() {
		return nil
	}
	o := &overloadState{}
	if d := cfg.Deadlines; d.Enabled() {
		seed := d.Seed
		if seed == 0 {
			seed = cfg.Seed + 4
		}
		ttl, err := workload.NewTTLSampler(e.sh.Layout, d.HotTTL, d.ColdTTL, d.Fixed, seed)
		if err != nil {
			return err
		}
		o.ttl = ttl
	}
	e.ovl = o
	return nil
}

// newArrivals builds the arrival process, bursty when configured. The
// session donates its recycled Poisson stream.
func newArrivals(cfg *Config, sess *Session) (workload.Arrivals, error) {
	b := cfg.Burst
	if cfg.QueueLength > 0 {
		if b.FlashCount > 0 {
			return &workload.FlashClosedArrivals{
				QueueLength: cfg.QueueLength,
				FlashAt:     b.FlashAt,
				FlashCount:  b.FlashCount,
			}, nil
		}
		return workload.ClosedArrivals{QueueLength: cfg.QueueLength}, nil
	}
	if b.Enabled() {
		seed := b.Seed
		if seed == 0 {
			seed = cfg.Seed + 5
		}
		return workload.NewBurstArrivals(cfg.MeanInterarrival, b.Factor, b.OnFrac,
			b.Period, b.FlashAt, b.FlashLen, seed)
	}
	return workload.NewPoissonArrivalsRand(cfg.MeanInterarrival, sess.arrRng(cfg.Seed+1))
}

// assignDeadline draws a TTL for a freshly minted request and places it on
// the deadline calendar.
func (e *engine) assignDeadline(r *sched.Request) {
	o := e.ovl
	if o == nil || o.ttl == nil {
		return
	}
	if ttl := o.ttl.TTL(r.Block); ttl > 0 {
		r.Deadline = r.Arrival + ttl
		o.dl.push(r)
	}
}

// nextDeadline returns the earliest live deadline on the calendar, pruning
// (and recycling) requests that already left the system, or +Inf when none
// remain.
func (e *engine) nextDeadline() float64 {
	o := e.ovl
	for len(o.dl) > 0 && o.dl[0].Done {
		e.freeRequest(o.dl.pop())
	}
	if len(o.dl) == 0 {
		return math.Inf(1)
	}
	return o.dl[0].Deadline
}

// expireDue cancels every deadlined request whose deadline has passed.
// Requests whose read is already in flight are left to complete late (the
// media transfer is not abandoned mid-read); everything else is removed from
// wherever it queues -- the pending list, an in-flight sweep, or a fault
// requeue in limbo -- and counted.
func (e *engine) expireDue() {
	o := e.ovl
	if o == nil {
		return
	}
	for len(o.dl) > 0 {
		r := o.dl[0]
		if r.Done {
			e.freeRequest(o.dl.pop())
			continue
		}
		if r.Deadline > e.now {
			return
		}
		o.dl.pop()
		if e.inFlightReq(r) {
			continue // completes late; counted at completion and recycled there
		}
		e.expireOne(r)
	}
}

// inFlightReq reports whether some drive is currently reading r.
func (e *engine) inFlightReq(r *sched.Request) bool {
	for i := range e.drives {
		if e.drives[i].inFlight == r {
			return true
		}
	}
	return false
}

// faultLimboReq reports whether some drive still references r in a fault
// limbo -- parked as the drive's permanently faulted read or on its
// aborted-sweep list -- between the issue that discovered the fault and the
// settle that will requeue it.
func (e *engine) faultLimboReq(r *sched.Request) bool {
	if e.flt == nil {
		return false
	}
	for i := range e.drives {
		dr := &e.drives[i]
		if dr.faulted == r {
			return true
		}
		for _, q := range dr.abort {
			if q == r {
				return true
			}
		}
	}
	return false
}

// expireOne cancels one request at its deadline: removes it from the
// pending list or its sweep (telling an evictor scheduler), counts the
// expiry, and -- in the closed model -- respawns the process's next request
// so the population stays constant (flash extras are ephemeral and do not
// respawn).
func (e *engine) expireOne(r *sched.Request) {
	if !e.removePendingOne(r) {
		for i := range e.drives {
			dr := &e.drives[i]
			if dr.st.Active != nil && dr.st.Active.Remove(r) {
				if ev, ok := dr.schd.(evictor); ok {
					ev.OnEvict(dr.st, r)
				}
				break
			}
		}
	}
	r.Expired, r.Done = true, true
	e.outstanding--
	e.res.Expired++
	if e.now > e.warmupEnd {
		e.res.DeadlineMisses++
		e.ovl.deadlinedPost++
		e.noteQueueAge(e.now - r.Arrival)
	}
	e.push(Event{Kind: EventExpire, Time: e.now, Tape: -1, Pos: -1, Request: r.ID})
	respawn := e.arr.Closed() && !r.Ephemeral
	// A request expiring while a drive holds it in fault limbo must not be
	// recycled yet: the drive's settle still dereferences it, and a reused
	// struct would alias a live request (requeueFaulted would then push the
	// new occupant into the pending list a second time). requeueFaulted
	// sees Expired at settle and frees it there instead.
	if !e.faultLimboReq(r) {
		e.freeRequest(r)
	}
	if respawn {
		e.deliver(e.newRequest(e.now))
	}
}

// removePendingOne deletes r from the pending list by identity, preserving
// order; reports whether it was there.
func (e *engine) removePendingOne(r *sched.Request) bool {
	for i, q := range e.sh.Pending {
		if q == r {
			e.sh.Pending = append(e.sh.Pending[:i], e.sh.Pending[i+1:]...)
			return true
		}
	}
	return false
}

// admitArrival enforces the admission bound for one external arrival at
// e.now. It reports whether the arrival may enter; under AdmitShed it makes
// room by dropping the oldest pending request first. Arrivals rejected with
// no pending victim to shed are counted as rejected under either policy.
func (e *engine) admitArrival() bool {
	a := e.cfg.Admission
	if !a.Enabled() || e.outstanding < int64(a.MaxQueue) {
		return true
	}
	if a.Policy == AdmitShed && len(e.sh.Pending) > 0 {
		victim := e.sh.Pending[0]
		e.sh.Pending = e.sh.Pending[1:]
		victim.Done = true
		e.outstanding--
		e.res.Shed++
		if e.now > e.warmupEnd {
			e.noteQueueAge(e.now - victim.Arrival)
		}
		e.push(Event{Kind: EventShed, Time: e.now, Tape: -1, Pos: -1, Request: victim.ID})
		e.freeRequest(victim)
		return true
	}
	e.res.Rejected++
	e.push(Event{Kind: EventReject, Time: e.now, Tape: -1, Pos: -1})
	return false
}

// noteQueueAge tracks the oldest age any request reached before service,
// expiry, or shedding (post-warmup, overload extension on; callers gate on
// both).
func (e *engine) noteQueueAge(age float64) {
	if age > e.res.MaxQueueAgeSec {
		e.res.MaxQueueAgeSec = age
	}
}

// overloaded reports whether the outstanding-request count exceeds the
// degradation threshold.
func (e *engine) overloaded() bool {
	g := e.cfg.Degrade
	return g.Enabled() && e.outstanding > int64(g.QueueThreshold)
}

// deferWrites reports whether policy-driven delta flushes are suspended
// (graceful degradation; the force-drain threshold still applies).
func (e *engine) deferWrites() bool {
	return e.cfg.Degrade.DeferWrites && e.overloaded()
}

// truncateSweep cuts a freshly built sweep down to the MaxSweep most urgent
// requests while the system is overloaded, returning the rest to the
// pending list in (Arrival, ID) order. Urgency here is deadline order --
// earliest deadline first, deadline-free requests last, ties by arrival --
// so drive time concentrates on the requests that can still make it.
func (e *engine) truncateSweep(st *sched.State, tape int, sweep *sched.Sweep) *sched.Sweep {
	max := e.cfg.Degrade.MaxSweep
	if sweep.Len() <= max {
		return sweep
	}
	reqs := sweep.Requests()
	sort.SliceStable(reqs, func(i, j int) bool {
		di, dj := reqs[i].Deadline, reqs[j].Deadline
		if di <= 0 {
			di = math.Inf(1)
		}
		if dj <= 0 {
			dj = math.Inf(1)
		}
		if di != dj {
			return di < dj
		}
		if reqs[i].Arrival != reqs[j].Arrival {
			return reqs[i].Arrival < reqs[j].Arrival
		}
		return reqs[i].ID < reqs[j].ID
	})
	for _, r := range reqs[max:] {
		r.Target = layout.Replica{}
		e.insertPending(r)
	}
	e.res.TruncatedSweeps++
	e.sh.ReleaseSweep(sweep)
	return e.sh.NewSweep(reqs[:max], st.StartHead(tape))
}

// insertPending returns a request to the pending list preserving
// (Arrival, ID) order, so schedulers keep seeing an arrival-ordered list.
func (e *engine) insertPending(r *sched.Request) {
	p := e.sh.Pending
	i := sort.Search(len(p), func(i int) bool {
		return p[i].Arrival > r.Arrival || (p[i].Arrival == r.Arrival && p[i].ID > r.ID)
	})
	p = append(p, nil)
	copy(p[i+1:], p[i:])
	p[i] = r
	e.sh.Pending = p
}
