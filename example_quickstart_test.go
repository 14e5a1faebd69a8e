package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Quickstart: simulate the paper's reference jukebox (ten 7 GB tapes, one
// Exabyte EXB-8505XL drive) under a moderately skewed closed workload with
// the recommended scheduler, and print the headline metrics.
func Example_quickstart() {
	// Start from the paper's defaults: 16 MB blocks, PH-10/RH-40 skew,
	// closed queue of 60, 2M simulated seconds.
	cfg := tapejuke.Config{
		Algorithm: tapejuke.EnvelopeMaxBandwidth, // best overall (Section 4.6)
	}.WithDefaults()

	res, err := tapejuke.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	stream, err := tapejuke.StreamingRateKBps(cfg.DriveProfile)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	fmt.Printf("scheduler:       %s\n", res.SchedulerName)
	fmt.Printf("throughput:      %.1f KB/s (%.0f%% of the drive's %.0f KB/s streaming rate)\n",
		res.ThroughputKBps, 100*res.ThroughputKBps/stream, stream)
	fmt.Printf("requests/minute: %.3f\n", res.RequestsPerMinute)
	fmt.Printf("mean response:   %.0f s   p95: %.0f s\n", res.MeanResponseSec, res.P95ResponseSec)
	fmt.Printf("tape switches:   %d over %.0f measured seconds\n", res.TapeSwitches, res.MeasuredSeconds)
	// Output:
	// scheduler:       envelope-max-bandwidth
	// throughput:      215.7 KB/s (37% of the drive's 579 KB/s streaming rate)
	// requests/minute: 0.790
	// mean response:   4557 s   p95: 10678 s
	// tape switches:   1814 over 1900006 measured seconds
}
