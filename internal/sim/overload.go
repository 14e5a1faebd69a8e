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
	dl            deadlineHeap         // deadlined requests still in the system
	deadlinedPost int64                // post-warmup deadlined outcomes (completions + expiries)
}

// deadlineHeap is the deadline calendar: a monomorphic 4-ary min-heap of
// deadlined requests on (Deadline, ID), a total order, so the sequence of
// expiries does not depend on the heap's shape. It holds only requests
// still in the system: each entry's DeadlineSlot tracks its index, and a
// request leaving another way (completion, shedding, unserviceable) is
// removed at once by freeRequest, so the top is the earliest live deadline.
type deadlineHeap []*sched.Request

// earlier orders requests on (Deadline, ID).
func earlier(a, b *sched.Request) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.ID < b.ID
}

// place stores r at index i and records the index in its slot.
func (h deadlineHeap) place(i int, r *sched.Request) {
	h[i] = r
	r.DeadlineSlot = int32(i + 1)
}

// up moves r, destined for index i, towards the root past every later
// parent.
func (h deadlineHeap) up(i int, r *sched.Request) {
	for i > 0 {
		p := (i - 1) / 4
		if !earlier(r, h[p]) {
			break
		}
		h.place(i, h[p])
		i = p
	}
	h.place(i, r)
}

// down moves r, destined for index i, towards the leaves past every
// earlier child.
func (h deadlineHeap) down(i int, r *sched.Request) {
	n := len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best, end := c, min(c+4, n)
		for j := c + 1; j < end; j++ {
			if earlier(h[j], h[best]) {
				best = j
			}
		}
		if !earlier(h[best], r) {
			break
		}
		h.place(i, h[best])
		i = best
	}
	h.place(i, r)
}

func (h *deadlineHeap) push(r *sched.Request) {
	*h = append(*h, r)
	h.up(len(*h)-1, r)
}

// remove takes r, which the heap holds, out of it in O(log n) and clears
// its slot: the last entry fills r's index and sifts whichever way it must.
func (h *deadlineHeap) remove(r *sched.Request) {
	q := *h
	i, n := int(r.DeadlineSlot)-1, len(q)-1
	last := q[n]
	q[n], r.DeadlineSlot = nil, 0
	q = q[:n]
	*h = q
	switch {
	case i == n:
	case i > 0 && earlier(last, q[(i-1)/4]):
		q.up(i, last)
	default:
		q.down(i, last)
	}
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

// nextDeadline returns the earliest deadline on the calendar, or +Inf when
// none remain.
func (e *engine) nextDeadline() float64 {
	if dl := e.ovl.dl; len(dl) > 0 {
		return dl[0].Deadline
	}
	return math.Inf(1)
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
	for len(o.dl) > 0 && o.dl[0].Deadline <= e.now {
		r := o.dl[0]
		o.dl.remove(r)
		if r.Place != sched.InFlight {
			e.expireOne(r)
		}
	}
}

// expireOne cancels one request at its deadline: removes it from the
// pending list or its sweep (telling an evictor scheduler) -- a request in
// fault limbo is in neither -- and sends it out through leave, delivering a
// closed-model process's next request so the population stays constant.
func (e *engine) expireOne(r *sched.Request) {
	if r.Place != sched.Limbo && !e.removePendingOne(r) {
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
	if e.leave(r, EventExpire) {
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
// room by dropping the oldest pending request first, which leaves exactly
// like an expiry (a closed-model process issues its next request).
// Arrivals rejected with no pending victim to shed are counted as rejected
// under either policy.
func (e *engine) admitArrival() bool {
	a := e.cfg.Admission
	if !a.Enabled() || e.outstanding < int64(a.MaxQueue) {
		return true
	}
	if a.Policy == AdmitShed && len(e.sh.Pending) > 0 {
		victim := e.sh.Pending[0]
		e.sh.Pending = e.sh.Pending[1:]
		if e.leave(victim, EventShed) {
			e.deliver(e.newRequest(e.now))
		}
		return true
	}
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
	// reqs is the sweep's own storage: sorting it scrambles the sweep, which
	// is released only after the truncated sweep has copied its share.
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
	cut := e.sh.NewSweep(reqs[:max], st.StartHead(tape))
	e.sh.ReleaseSweep(sweep)
	return cut
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
