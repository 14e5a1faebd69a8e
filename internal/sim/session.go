package sim

import (
	"math/rand"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/stats"
	"tapejuke/internal/tapemodel"
)

// Session owns simulation state that is expensive to rebuild and safe to
// carry across runs: the immutable data layout and dense cost table (cached
// by configuration key, so replications and parameter sweeps that share
// them stop re-paying construction), and the per-run scratch -- the shared
// scheduling state with its sweep pool, the request free list, the drive
// records, the percentile reservoir, and the event-calendar storage --
// which is reset rather than reallocated. A Session is not safe for
// concurrent use: create one per worker goroutine.
//
// The package-level Run is Run on a fresh Session, and a reused session
// gives the same results; the session tests pin this.
type Session struct {
	layKey  layout.Config
	lay     *layout.Layout
	costKey costKey
	costs   *sched.CostModel

	sh         *sched.Shared
	drives     []drive
	reqFree    []*sched.Request
	respSample *stats.Reservoir
	evq        []Event

	genRand *rand.Rand // workload generator stream, reseeded per run
	arrRand *rand.Rand // Poisson arrival stream, reseeded per run
}

// costKey identifies a cached cost model. The profile is compared by
// interface identity, which is why Runner pins one Positioner instance per
// profile name; a fresh instance per run would never hit.
type costKey struct {
	prof      tapemodel.Positioner
	blockMB   float64
	maxBlocks int
}

// NewSession creates an empty session.
func NewSession() *Session { return &Session{} }

// Run executes one simulation, reusing the session's caches and scratch.
func (s *Session) Run(cfg Config) (*Result, error) {
	e, err := newEngine(cfg, s)
	if err != nil {
		return nil, err
	}
	res, rerr := e.run()
	s.reclaim(e)
	return res, rerr
}

// ShareLayout makes lay, a layout built by layout.Build elsewhere, the
// session's cached layout: a run whose layout configuration equals lay's
// own uses it instead of building one, and any other run builds its own as
// usual. A run never changes it (a repair run builds and mutates a private
// layout), so sessions on different goroutines may share one layout.
func (s *Session) ShareLayout(lay *layout.Layout) { s.lay, s.layKey = lay, lay.Config() }

// Layout returns the layout the session's last run ran on.
func (s *Session) Layout() *layout.Layout { return s.sh.Layout }

// cachedLayout returns the layout for the given configuration, building and
// caching it on a key change. layout.Layout is immutable after Build (the
// fault and write extensions keep their masks and delta logs outside it),
// so sharing one instance across runs is safe.
func (s *Session) cachedLayout(key layout.Config) (*layout.Layout, error) {
	if s.lay != nil && s.layKey == key {
		return s.lay, nil
	}
	lay, err := layout.Build(key)
	if err != nil {
		return nil, err
	}
	s.lay, s.layKey = lay, key
	return lay, nil
}

// cachedCosts returns a cost model with its dense table enabled, cached by
// (profile, block size, table size). Profiles of unknown dynamic type are
// not cached: the key compares with ==, which would panic on an
// uncomparable Positioner implementation.
func (s *Session) cachedCosts(prof tapemodel.Positioner, blockMB float64, maxBlocks int) *sched.CostModel {
	cacheable := false
	switch prof.(type) {
	case *tapemodel.Profile, *tapemodel.Serpentine:
		cacheable = true
	}
	if cacheable {
		key := costKey{prof, blockMB, maxBlocks}
		if s.costs != nil && s.costKey == key {
			return s.costs
		}
		costs := newCostModel(prof, blockMB, maxBlocks)
		s.costs, s.costKey = costs, key
		return costs
	}
	return newCostModel(prof, blockMB, maxBlocks)
}

// genRng returns the session's recycled workload generator stream,
// reseeded in place -- Rand.Seed(s) reproduces exactly the stream of
// rand.New(rand.NewSource(s)), so reuse cannot change results.
func (s *Session) genRng(seed int64) *rand.Rand { return reseed(&s.genRand, seed) }

// arrRng is genRng for the Poisson arrival stream.
func (s *Session) arrRng(seed int64) *rand.Rand { return reseed(&s.arrRand, seed) }

func reseed(slot **rand.Rand, seed int64) *rand.Rand {
	if *slot == nil {
		*slot = rand.New(rand.NewSource(seed))
	} else {
		(*slot).Seed(seed)
	}
	return *slot
}

// reclaim harvests the finished engine's recyclable storage back into the
// session, the run's live requests included. Each is held in exactly one
// place -- the pending list, a sweep, a drive's read or a drive's limbo,
// where a Gone request still waits for its recycling -- so each returns to
// the free list once. The next newEngine resets the pending list and
// overwrites the drive records, so only the sweeps need releasing here.
// The deadline calendar holds only live requests and goes with the engine
// (newRequest clears the slot).
func (s *Session) reclaim(e *engine) {
	free := append(e.reqFree, e.sh.Pending...)
	for i := range e.drives {
		dr := &e.drives[i]
		if dr.inFlight != nil {
			free = append(free, dr.inFlight)
		}
		free = append(free, dr.limbo...)
		if st := dr.st; st.Active != nil {
			free = append(free, st.Active.Requests()...)
			e.sh.ReleaseSweep(st.Active)
			st.Active = nil
		}
	}
	s.reqFree = free
	s.sh = e.sh
	s.drives = e.drives[:0]
	s.respSample = e.respSample
	s.evq = e.evq[:0]
}
