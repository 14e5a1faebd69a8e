package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Gradualfill walks a jukebox through its life, from nearly empty to
// overflowing, following the paper's closing recommendation (Section 4.8):
// keep the hottest data on a dedicated tape, append replicas of it after
// the data on the other tapes while spare capacity lasts, and recapture
// that space as the archive grows. At every occupancy it compares the
// recommended layout against a naive one (no replication) under the
// envelope scheduler.
func Example_gradualfill() {
	const capacityMB = 10 * 7168.0

	fmt.Println("A jukebox's life under the Section 4.8 gradual-fill procedure")
	fmt.Printf("%6s %10s %4s %12s %12s %8s  %s\n",
		"fill", "stage", "NR", "plan KB/s", "naive KB/s", "gain", "rationale")

	for _, fill := range []float64{0.2, 0.4, 0.6, 0.8, 0.9, 0.97, 1.0} {
		base := tapejuke.Config{
			Algorithm:  tapejuke.EnvelopeMaxBandwidth,
			DataMB:     fill * capacityMB,
			HorizonSec: 600_000,
		}

		planned, plan, err := tapejuke.PlanGradualFill(base)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		pres, err := tapejuke.Run(planned)
		if err != nil {
			fmt.Println("error:", err)
			return
		}

		naive := base.WithDefaults() // horizontal, no replication, SP 0
		nres, err := tapejuke.Run(naive)
		if err != nil {
			fmt.Println("error:", err)
			return
		}

		gain := 100 * (pres.ThroughputKBps/nres.ThroughputKBps - 1)
		fmt.Printf("%5.0f%% %10s %4d %12.1f %12.1f %+7.1f%%  %s\n",
			plan.Fill*100, plan.Stage, plan.Replicas,
			pres.ThroughputKBps, nres.ThroughputKBps, gain, plan.Rationale)
	}

	fmt.Println()
	fmt.Println("Replication bought from spare capacity is a free win early in the")
	fmt.Println("timeline and degrades gracefully to the plain layout as space runs out.")
	// Output:
	// A jukebox's life under the Section 4.8 gradual-fill procedure
	//   fill      stage   NR    plan KB/s   naive KB/s     gain  rationale
	//    20%      early    9        321.6        310.9    +3.4%  spare capacity covers full replication: hot tape + replicas appended after each tape's data
	//    40%      early    9        287.5        275.9    +4.2%  spare capacity covers full replication: hot tape + replicas appended after each tape's data
	//    60%    partial    6        262.2        250.9    +4.5%  spare capacity covers 6 replica set(s) appended after the data
	//    80%    partial    2        237.4        232.3    +2.2%  spare capacity covers 2 replica set(s) appended after the data
	//    90%    partial    1        228.7        222.5    +2.8%  spare capacity covers 1 replica set(s) appended after the data
	//    97%  recapture    0        218.8        218.8    +0.0%  no spare capacity: replicas recaptured, hot data at the tape beginnings
	//   100%  recapture    0        216.0        216.0    +0.0%  no spare capacity: replicas recaptured, hot data at the tape beginnings
	//
	// Replication bought from spare capacity is a free win early in the
	// timeline and degrades gracefully to the plain layout as space runs out.
}
