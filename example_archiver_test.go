package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Archiver models a surveillance/telemetry archive that both reads and
// writes: analysts retrieve historical footage while new delta blocks
// trickle in continuously. The paper's design directs writes to
// disk-resident delta files and drains them to tape "during idle time or
// piggybacked on the read schedule"; this example compares those flush
// policies and shows what each costs the readers.
//
// It also demonstrates the Observer hook by tallying the jukebox's
// operation mix during one run.
func Example_archiver() {
	// A moderately busy open system: a read every ~150 s, a delta write
	// every ~300 s.
	base := tapejuke.Config{
		MeanInterarrivalSec: 150,
		Algorithm:           tapejuke.EnvelopeMaxBandwidth,
		Placement:           tapejuke.Vertical,
		Replicas:            9,
		StartPos:            1,
		HorizonSec:          1_000_000,
	}

	fmt.Println("Delta-write flush policies (open model: reads every ~150 s, writes every ~300 s)")
	fmt.Printf("  %-16s %10s %12s %14s %14s %12s\n",
		"policy", "read KB/s", "read wait", "writes flushed", "write delay", "peak buffer")
	for _, policy := range []tapejuke.WritePolicy{
		tapejuke.WritePiggyback,
		tapejuke.WriteIdleOnly,
		tapejuke.WritePiggybackAndIdle,
	} {
		cfg := base
		cfg.Writes = tapejuke.WriteConfig{
			MeanInterarrivalSec: 300,
			Policy:              policy,
			FlushThreshold:      200, // relief valve if flushing falls behind
		}
		res, err := tapejuke.Run(cfg.WithDefaults())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Printf("  %-16s %10.1f %10.0f s %14d %12.0f s %12d\n",
			policy, res.ThroughputKBps, res.MeanResponseSec,
			res.WritesFlushed, res.MeanWriteDelaySec, res.MaxBufferedWrites)
	}

	// Watch one run through the Observer hook: how the drive spends its
	// operations.
	fmt.Println()
	fmt.Println("Operation mix during the piggyback+idle run:")
	counts := map[tapejuke.EventKind]int{}
	cfg := base
	cfg.Writes = tapejuke.WriteConfig{
		MeanInterarrivalSec: 300,
		Policy:              tapejuke.WritePiggybackAndIdle,
	}
	cfg.Observer = tapejuke.ObserverFunc(func(ev tapejuke.Event) {
		counts[ev.Kind]++
	})
	if _, err := tapejuke.Run(cfg.WithDefaults()); err != nil {
		fmt.Println("error:", err)
		return
	}
	for _, k := range []tapejuke.EventKind{
		tapejuke.EventRead, tapejuke.EventSwitch,
		tapejuke.EventWriteFlush, tapejuke.EventIdle,
	} {
		fmt.Printf("  %-12s %6d\n", k, counts[k])
	}
	// Output:
	// Delta-write flush policies (open model: reads every ~150 s, writes every ~300 s)
	//   policy            read KB/s    read wait writes flushed    write delay  peak buffer
	//   piggyback             109.1       1998 s           3293         4674 s           38
	//   idle-only             109.1       1287 s           3130        52527 s          205
	//   piggyback+idle        109.1       1998 s           3293         4674 s           38
	//
	// Operation mix during the piggyback+idle run:
	//   read           6677
	//   switch         1225
	//   write-flush    3293
	//   idle              1
}
