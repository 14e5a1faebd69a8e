package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Capacityplan reproduces the decision procedure of Section 4.8 as a
// planning tool: given a jukebox farm and a workload skew, how many
// replicas of hot data pay for themselves?
//
// For each replica count it reports the storage expansion factor, the
// per-jukebox throughput with the workload spread across the enlarged farm
// (queue 60/E), and the cost-performance ratio against the non-replicated
// baseline. It then prints the paper's recommendation for the measured
// skew.
func Example_capacityplan() {
	const baseQueue = 60

	for _, rh := range []float64{40, 80} {
		skew := "moderate"
		if rh >= 70 {
			skew = "high"
		}
		fmt.Printf("Skew: %.0f%% of requests to the hot 10%% of data (%s skew)\n", rh, skew)
		fmt.Printf("  %-3s %-6s %-7s %-12s %s\n", "NR", "E", "queue", "KB/s per box", "cost-perf")

		var baseline *tapejuke.Result
		best, bestNR := 0.0, 0
		for nr := 0; nr <= 9; nr++ {
			cfg := tapejuke.Config{
				Algorithm:      tapejuke.EnvelopeMaxBandwidth,
				HotPercent:     10,
				ReadHotPercent: rh,
				Replicas:       nr,
				HorizonSec:     1_000_000,
			}
			if nr > 0 {
				cfg.Placement = tapejuke.Vertical
				cfg.StartPos = 1 // replicas at the tape ends (Section 4.5)
			}
			e := cfg.ExpansionFactor()
			q, err := tapejuke.ScaledQueueLength(baseQueue, e)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			cfg.QueueLength = q

			res, err := tapejuke.Run(cfg.WithDefaults())
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			ratio := 1.0
			if nr == 0 {
				baseline = res
			} else {
				ratio, err = tapejuke.CostPerformanceRatio(res, baseline)
				if err != nil {
					fmt.Println("error:", err)
					return
				}
			}
			if ratio > best {
				best, bestNR = ratio, nr
			}
			fmt.Printf("  %-3d %-6.2f %-7d %-12.1f %.3f\n",
				nr, e, q, res.ThroughputKBps, ratio)
		}

		switch {
		case best > 1.02:
			fmt.Printf("  => replicate: NR=%d improves performance per dollar by %.0f%%.\n",
				bestNR, (best-1)*100)
		case best >= 0.98:
			fmt.Println("  => cost-neutral: replicate into spare capacity only (free speedup).")
		default:
			fmt.Println("  => do not buy capacity for replicas; use spare space if it exists.")
		}
		fmt.Println()
	}
	// Output:
	// Skew: 40% of requests to the hot 10% of data (moderate skew)
	//   NR  E      queue   KB/s per box cost-perf
	//   0   1.00   60      216.1        1.000
	//   1   1.10   55      219.6        1.016
	//   2   1.20   50      220.4        1.020
	//   3   1.30   46      219.7        1.016
	//   4   1.40   43      219.9        1.018
	//   5   1.50   40      219.8        1.017
	//   6   1.60   38      220.9        1.022
	//   7   1.70   35      218.2        1.010
	//   8   1.80   33      218.9        1.013
	//   9   1.90   32      218.6        1.012
	//   => replicate: NR=6 improves performance per dollar by 2%.
	//
	// Skew: 80% of requests to the hot 10% of data (high skew)
	//   NR  E      queue   KB/s per box cost-perf
	//   0   1.00   60      243.7        1.000
	//   1   1.10   55      270.4        1.110
	//   2   1.20   50      271.7        1.115
	//   3   1.30   46      272.0        1.116
	//   4   1.40   43      275.2        1.129
	//   5   1.50   40      272.7        1.119
	//   6   1.60   38      274.5        1.126
	//   7   1.70   35      274.7        1.127
	//   8   1.80   33      276.8        1.136
	//   9   1.90   32      275.4        1.130
	//   => replicate: NR=8 improves performance per dollar by 14%.
}
