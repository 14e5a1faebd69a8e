package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Videoserver models the tape tier of a video-on-demand archive, one of the
// workloads that motivates the paper: a small set of popular titles draws
// most of the traffic, the long tail of the catalogue draws the rest.
//
// The example evaluates the paper's headline recommendation on this
// workload: replicate the popular titles on every tape and park the
// replicas at the tape ends, using the spare capacity the archive already
// has. It compares four deployments under an increasingly busy restore
// queue and reports how much the "free" replication buys.
func Example_videoserver() {
	// The archive: a 10-tape jukebox of 7 GB tapes storing video segments
	// as 16 MB blocks. Ten percent of titles are "popular" and take 60% of
	// the restore requests -- a strong but realistic popularity skew.
	baseCfg := tapejuke.Config{
		HotPercent:     10,
		ReadHotPercent: 60,
		HorizonSec:     1_000_000,
	}
	with := func(f func(*tapejuke.Config)) tapejuke.Config {
		c := baseCfg
		f(&c)
		return c
	}

	deployments := []struct {
		name string
		cfg  tapejuke.Config
	}{
		{
			name: "naive: popular titles scattered, FIFO restores",
			cfg: with(func(c *tapejuke.Config) {
				c.Algorithm = tapejuke.FIFO
			}),
		},
		{
			name: "scheduled: dynamic max-bandwidth, popular titles at tape starts",
			cfg: with(func(c *tapejuke.Config) {
				c.Algorithm = tapejuke.DynamicMaxBandwidth
				c.StartPos = 0
			}),
		},
		{
			name: "replicated: copies of popular titles at every tape's end",
			cfg: with(func(c *tapejuke.Config) {
				c.Algorithm = tapejuke.DynamicMaxBandwidth
				c.Placement = tapejuke.Vertical
				c.Replicas = 9
				c.StartPos = 1
			}),
		},
		{
			name: "replicated + envelope scheduling (paper's recommendation)",
			cfg: with(func(c *tapejuke.Config) {
				c.Algorithm = tapejuke.EnvelopeMaxBandwidth
				c.Placement = tapejuke.Vertical
				c.Replicas = 9
				c.StartPos = 1
			}),
		},
	}

	fmt.Println("Restore performance by deployment (closed queue of concurrent restores)")
	fmt.Println()
	for _, queue := range []int{20, 60, 140} {
		fmt.Printf("--- %d concurrent restore jobs ---\n", queue)
		var baseline float64
		for i, d := range deployments {
			cfg := d.cfg
			cfg.QueueLength = queue
			cfg = cfg.WithDefaults()
			res, err := tapejuke.Run(cfg)
			if err != nil {
				fmt.Printf("error: %s: %v\n", d.name, err)
				return
			}
			gain := ""
			if i == 0 {
				baseline = res.ThroughputKBps
			} else if baseline > 0 {
				gain = fmt.Sprintf("  (%.1fx naive)", res.ThroughputKBps/baseline)
			}
			fmt.Printf("  %-62s %7.1f KB/s, mean wait %6.0f s%s\n",
				d.name, res.ThroughputKBps, res.MeanResponseSec, gain)
		}
		fmt.Println()
	}

	e := deployments[2].cfg.ExpansionFactor()
	fmt.Printf("Storage cost of full replication: %.1fx base data size.\n", e)
	fmt.Println("If that space is spare capacity, the speedup above is free (Section 4.8).")
	// Output:
	// Restore performance by deployment (closed queue of concurrent restores)
	//
	// --- 20 concurrent restore jobs ---
	//   naive: popular titles scattered, FIFO restores                    67.5 KB/s, mean wait   4859 s
	//   scheduled: dynamic max-bandwidth, popular titles at tape starts   145.0 KB/s, mean wait   2261 s  (2.1x naive)
	//   replicated: copies of popular titles at every tape's end         191.6 KB/s, mean wait   1710 s  (2.8x naive)
	//   replicated + envelope scheduling (paper's recommendation)        206.6 KB/s, mean wait   1585 s  (3.1x naive)
	//
	// --- 60 concurrent restore jobs ---
	//   naive: popular titles scattered, FIFO restores                    67.5 KB/s, mean wait  14573 s
	//   scheduled: dynamic max-bandwidth, popular titles at tape starts   223.1 KB/s, mean wait   4406 s  (3.3x naive)
	//   replicated: copies of popular titles at every tape's end         285.2 KB/s, mean wait   3447 s  (4.2x naive)
	//   replicated + envelope scheduling (paper's recommendation)        291.5 KB/s, mean wait   3374 s  (4.3x naive)
	//
	// --- 140 concurrent restore jobs ---
	//   naive: popular titles scattered, FIFO restores                    67.5 KB/s, mean wait  34008 s
	//   scheduled: dynamic max-bandwidth, popular titles at tape starts   297.0 KB/s, mean wait   7732 s  (4.4x naive)
	//   replicated: copies of popular titles at every tape's end         344.6 KB/s, mean wait   6648 s  (5.1x naive)
	//   replicated + envelope scheduling (paper's recommendation)        349.5 KB/s, mean wait   6571 s  (5.2x naive)
	//
	// Storage cost of full replication: 1.9x base data size.
	// If that space is spare capacity, the speedup above is free (Section 4.8).
}
