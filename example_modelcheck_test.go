package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Modelcheck cross-validates the two independent performance models in
// this repository: the discrete-event simulator (Run) and the closed-form
// analytic estimate (Analyze). They implement the same physics by entirely
// different means, so their agreement is evidence that both are right --
// the same methodology the paper uses when it validates its locate-time
// model against hardware measurements before trusting the simulator.
func Example_modelcheck() {
	fmt.Println("Closed-form analysis vs. event-driven simulation")
	fmt.Println("(uniform access, no replication, static fair rotation assumed by the model)")
	fmt.Println()
	fmt.Printf("%8s %14s %14s %10s %22s\n",
		"queue", "analytic KB/s", "simulated KB/s", "delta", "batch (model vs sim)")

	for _, queue := range []int{20, 40, 60, 80, 100, 120, 140} {
		cfg := tapejuke.Config{
			HotPercent:  0, // uniform: the regime the closed form models best
			Algorithm:   tapejuke.StaticRoundRobin,
			QueueLength: queue,
			HorizonSec:  600_000,
		}.WithDefaults()

		est, err := tapejuke.Analyze(cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		res, err := tapejuke.Run(cfg)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		simBatch := float64(res.Completed) / float64(res.TapeSwitches)
		delta := 100 * (res.ThroughputKBps - est.ThroughputKBps) / est.ThroughputKBps
		fmt.Printf("%8d %14.1f %14.1f %9.1f%% %10.1f vs %.1f\n",
			queue, est.ThroughputKBps, res.ThroughputKBps, delta,
			est.RequestsPerSweep, simBatch)
	}

	fmt.Println()
	fmt.Println("The sawtooth batch model (k = 2*queue/tapes) and the sweep-extent")
	fmt.Println("formula E[max of k] track the simulator within a few percent across")
	fmt.Println("the whole intensity range -- before any scheduling cleverness.")
	// Output:
	// Closed-form analysis vs. event-driven simulation
	// (uniform access, no replication, static fair rotation assumed by the model)
	//
	//    queue  analytic KB/s simulated KB/s      delta   batch (model vs sim)
	//       20          114.3          112.3      -1.7%        4.0 vs 3.7
	//       40          164.1          160.4      -2.3%        8.0 vs 7.3
	//       60          198.3          195.0      -1.6%       12.0 vs 11.0
	//       80          223.1          220.5      -1.2%       16.0 vs 14.6
	//      100          242.1          242.1       0.0%       20.0 vs 18.4
	//      120          256.9          258.4       0.6%       24.0 vs 21.9
	//      140          268.9          272.1       1.2%       28.0 vs 25.4
	//
	// The sawtooth batch model (k = 2*queue/tapes) and the sweep-extent
	// formula E[max of k] track the simulator within a few percent across
	// the whole intensity range -- before any scheduling cleverness.
}
