package figures

import (
	"fmt"

	"tapejuke"
)

// Convergence is a methodology figure (not in the paper): throughput and
// mean response of the reference configuration as a function of the
// simulated horizon, with replications, showing where the estimators
// stabilize. The paper runs 10,000,000 s per point; this figure documents
// how much shorter horizons change the answers (very little beyond ~1M s),
// which justifies this repository's faster defaults.
//
// Unlike the paper figures it forces at least 3 replications, so it keeps
// its own grid rather than joining All's shared one (the shared grid runs
// every figure at a uniform replication count).
func Convergence(o Options) (*Figure, error) {
	if o.Replications < 3 {
		o.Replications = 3
	}
	return runPlan(o, planConvergence)
}

func planConvergence(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "convergence",
		Title:     fmt.Sprintf("Estimator convergence with the simulated horizon (%d replications)", o.Replications),
		ParamName: "horizon_s",
	}}
	for _, alg := range []tapejuke.Algorithm{tapejuke.DynamicMaxBandwidth, tapejuke.EnvelopeMaxBandwidth} {
		for _, h := range []float64{100_000, 300_000, 1_000_000, 3_000_000, 10_000_000} {
			cfg := base(o)
			cfg.Algorithm = alg
			cfg.HorizonSec = h
			if alg == tapejuke.EnvelopeMaxBandwidth {
				fullReplication(&cfg)
			}
			p.jobs = append(p.jobs, job{series: string(alg), param: h, cfg: cfg})
		}
	}
	return p, nil
}
