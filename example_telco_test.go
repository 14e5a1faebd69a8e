package tapejuke_test

import (
	"fmt"

	"tapejuke"
)

// Telco models a telecommunication provider's call-record archive, another
// workload from the paper's introduction: billing detail and fraud
// signatures are kept on tape for years, and two very different consumers
// read them back.
//
//   - The nightly fraud scan is a batch job: a fixed pool of worker
//     processes keeps a constant number of block reads outstanding. This is
//     the closed-queuing model.
//   - Daytime analysts issue sporadic ad-hoc queries: arrivals are Poisson
//     and the analyst cares about response time, not throughput. This is
//     the open-queuing model.
//
// The example runs both against the same jukebox and shows how the choice
// of scheduler changes what each consumer experiences -- including the
// paper's observation that under open queuing at high load, better
// scheduling improves latency but not throughput.
func Example_telco() {
	// Recent months are hot (10% of data, 40% of reads).
	archive := tapejuke.Config{
		HotPercent:     10,
		ReadHotPercent: 40,
		Placement:      tapejuke.Vertical,
		Replicas:       9,
		StartPos:       1,
		HorizonSec:     1_000_000,
	}

	algorithms := []tapejuke.Algorithm{
		tapejuke.FIFO,
		tapejuke.DynamicMaxBandwidth,
		tapejuke.EnvelopeMaxBandwidth,
	}

	fmt.Println("Nightly fraud scan (closed model, 80 worker processes)")
	fmt.Printf("  %-28s %14s %16s\n", "scheduler", "KB/s", "scan of 10 GB")
	for _, a := range algorithms {
		cfg := archive
		cfg.Algorithm = a
		cfg.QueueLength = 80
		res, err := tapejuke.Run(cfg.WithDefaults())
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		hours := 10 * 1024 * 1024 / res.ThroughputKBps / 3600
		fmt.Printf("  %-28s %14.1f %13.1f h\n", a, res.ThroughputKBps, hours)
	}
	fmt.Println()

	fmt.Println("Analyst queries (open model, Poisson arrivals)")
	fmt.Printf("  %-28s %12s %12s %12s\n", "scheduler", "load", "KB/s", "mean wait")
	for _, mean := range []float64{300, 60} {
		load := "light"
		if mean < 100 {
			load = "heavy"
		}
		for _, a := range algorithms {
			cfg := archive
			cfg.Algorithm = a
			cfg.QueueLength = 0
			cfg.MeanInterarrivalSec = mean
			res, err := tapejuke.Run(cfg.WithDefaults())
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("  %-28s %12s %12.1f %10.0f s\n",
				a, load, res.ThroughputKBps, res.MeanResponseSec)
		}
	}
	fmt.Println()
	fmt.Println("Note the open-queuing effect from Sections 4.2/4.4: once arrivals")
	fmt.Println("saturate the drive, every scheduler moves the same bytes per second;")
	fmt.Println("the good ones just make the analysts wait far less for them.")
	// Output:
	// Nightly fraud scan (closed model, 80 worker processes)
	//   scheduler                              KB/s    scan of 10 GB
	//   fifo                                   77.8          37.4 h
	//   dynamic-max-bandwidth                 282.0          10.3 h
	//   envelope-max-bandwidth                293.7           9.9 h
	//
	// Analyst queries (open model, Poisson arrivals)
	//   scheduler                            load         KB/s    mean wait
	//   fifo                                light         54.5        506 s
	//   dynamic-max-bandwidth               light         54.5        395 s
	//   envelope-max-bandwidth              light         54.5        382 s
	//   fifo                                heavy         77.9     377013 s
	//   dynamic-max-bandwidth               heavy        270.6       4392 s
	//   envelope-max-bandwidth              heavy        270.7       3803 s
	//
	// Note the open-queuing effect from Sections 4.2/4.4: once arrivals
	// saturate the drive, every scheduler moves the same bytes per second;
	// the good ones just make the analysts wait far less for them.
}
