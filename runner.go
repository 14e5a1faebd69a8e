package tapejuke

import (
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// Runner executes simulations like Run while keeping the expensive or
// recyclable parts of a run alive between calls: the data layout and the
// dense cost table (cached by configuration, so replications and parameter
// sweeps that share them are built once), and the simulator's scratch
// storage -- scheduling state, request free lists, sample reservoirs, the
// event calendar -- which is reset instead of reallocated. Results are
// identical to Run for every configuration; only the setup cost changes.
//
// A Runner is not safe for concurrent use. The intended shape is one
// Runner per worker goroutine, each draining a queue of configurations
// (this is what the figures experiment engine does).
type Runner struct {
	sess     *sim.Session
	profName string
	prof     tapemodel.Positioner
	scheds   map[Algorithm]sched.Scheduler
}

// NewRunner creates an empty Runner.
func NewRunner() *Runner { return &Runner{sess: sim.NewSession()} }

// Run simulates the configuration and returns its metrics, reusing the
// Runner's cached state where the configuration allows.
func (r *Runner) Run(c Config) (*Result, error) {
	sc, err := r.prepare(c)
	if err != nil {
		return nil, err
	}
	return r.sess.Run(*sc)
}

// prepare translates c into the internal configuration and applies the
// Runner's reuse policies (profile pinning, scheduler recycling) without
// starting the run. The farm front end uses the split so it can inject a
// shard's routed trace streams into the prepared configuration and then
// run it on this Runner's session.
func (r *Runner) prepare(c Config) (*sim.Config, error) {
	sc, err := c.toSim()
	if err != nil {
		return nil, err
	}
	// Pin one Positioner instance per profile name: toSim resolves a fresh
	// instance every call, and the session's cost-table cache compares
	// profiles by identity, so without pinning it could never hit.
	if r.prof != nil && c.DriveProfile == r.profName {
		sc.Profile = r.prof
	} else {
		r.profName, r.prof = c.DriveProfile, sc.Profile
	}
	// Reuse one scheduler per algorithm: the envelope family keeps ~35 KB of
	// builder and selection scratch that is expensive to re-grow every run.
	// Only single-drive runs qualify (multi-drive builds one scheduler per
	// drive through the factory), and only schedulers that are safely
	// resettable -- see the reuse rules on sched.RunResetter.
	if sc.SchedulerFactory == nil {
		alg := c.Algorithm
		if alg == "" {
			alg = DynamicMaxBandwidth
		}
		if cached, ok := r.scheds[alg]; ok {
			if reusable, rr := schedulerReusable(cached); reusable {
				if rr != nil {
					rr.ResetRun()
				}
				sc.Scheduler = cached
			}
		} else {
			if r.scheds == nil {
				r.scheds = make(map[Algorithm]sched.Scheduler)
			}
			r.scheds[alg] = sc.Scheduler
		}
	}
	return sc, nil
}

// schedulerReusable reports whether a scheduler instance may serve another
// run, and the RunResetter to invoke first (nil for FIFO and the static
// and dynamic schedulers, which carry nothing between reschedules but
// selection scratch they rebuild on every call).
func schedulerReusable(s sched.Scheduler) (bool, sched.RunResetter) {
	switch sc := s.(type) {
	case *sched.FIFO, *sched.Static, *sched.Dynamic:
		return true, nil // nothing carries over from one run to the next
	case sched.RunResetter:
		return true, sc
	}
	return false, nil
}
