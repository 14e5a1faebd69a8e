package figures

import (
	"fmt"

	"tapejuke"
)

// Farm sweeps shard count × cross-library placement policy for a
// replicated jukebox farm under a fixed per-library offered load (the
// farm-level arrival rate grows with the shard count). Each point is one
// RunFarm — itself parallel over shards with Options.Workers goroutines —
// reporting aggregate throughput and the completion-weighted P99 tail.
// Spread placement puts each hot block's NR+1 copies on NR+1 different
// libraries at the same expansion factor E as per-library replication,
// so the curve separation is pure placement effect.
func Farm(o Options) (*Figure, error) { return runPlan(o, planFarm) }

// planFarm has no grid jobs: every point is a farm run with its own
// internal worker pool, so the finish hook drives RunFarm directly.
func planFarm(o Options) (plan, error) {
	return plan{
		fig: Figure{
			ID:        "farm",
			Title:     "Jukebox farm: aggregate throughput and P99 tail vs. shards x placement (NR=1, equal E for local/spread)",
			ParamName: "shards",
			ValueName: "p99_response_s",
		},
		finish: func(f *Figure) error {
			const perLibraryMean = 80 // seconds between arrivals per library
			for _, pol := range []tapejuke.FarmPlacement{tapejuke.FarmLocal, tapejuke.FarmSpread, tapejuke.FarmMirror} {
				for _, n := range []int{1, 2, 4} {
					cfg := base(o)
					cfg.QueueLength = 0
					cfg.MeanInterarrivalSec = perLibraryMean / float64(n)
					cfg.Algorithm = tapejuke.EnvelopeMaxBandwidth
					cfg.ReadHotPercent = 80
					cfg.Replicas = 1
					cfg.DataMB = 2000 * cfg.BlockMB // partial fill so mirroring fits
					cfg.Faults.TapeMTBFSec = 4_000_000
					fr, err := tapejuke.RunFarm(tapejuke.FarmConfig{
						Shards:    n,
						Placement: pol,
						Workers:   o.Workers,
						Base:      cfg,
					})
					if err != nil {
						return fmt.Errorf("farm %s x%d: %w", pol, n, err)
					}
					f.Rows = append(f.Rows, Row{
						Series:            string(pol),
						Param:             float64(n),
						ThroughputKBps:    fr.ThroughputKBps,
						RequestsPerMinute: fr.RequestsPerMinute,
						MeanResponseSec:   fr.MeanResponseSec,
						Value:             fr.P99ResponseSec,
					})
				}
			}
			return nil
		},
	}, nil
}
