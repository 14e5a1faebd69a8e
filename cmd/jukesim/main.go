// Command jukesim runs a single tape-jukebox simulation and prints its
// metrics.
//
// Usage examples:
//
//	jukesim                                  # paper defaults
//	jukesim -alg envelope-max-bandwidth -nr 9 -sp 1 -placement vertical
//	jukesim -interarrival 120 -queue 0       # open-queuing model
//	jukesim -format csv
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"tapejuke"
)

// main delegates to run so that deferred cleanups -- in particular flushing
// an in-progress CPU or heap profile -- execute on every exit path, which
// os.Exit would skip.
func main() {
	os.Exit(run())
}

// usage prints the flag help grouped into labeled sections, so each
// extension's flags read as a unit instead of one alphabetical wall.
func usage() {
	out := flag.CommandLine.Output()
	sections := []struct {
		title    string
		prefixes []string
	}{
		{"Workload, scheduling, and output", nil}, // everything unclaimed
		{"Jukebox farm", []string{"farm-"}},
		{"Delta writes", []string{"write-"}},
		{"Fault injection", []string{"fault-"}},
		{"Overload handling", []string{"deadline-", "admit-", "burst-", "degrade-", "age-weight"}},
		{"Self-healing repair", []string{"repair"}},
		{"Media health", []string{"health", "scrub-"}},
	}
	claim := func(name string) int {
		for i := 1; i < len(sections); i++ {
			for _, p := range sections[i].prefixes {
				if name == strings.TrimSuffix(p, "-") || strings.HasPrefix(name, strings.TrimSuffix(p, "-")+"-") {
					return i
				}
			}
		}
		return 0
	}
	grouped := make([][]*flag.Flag, len(sections))
	flag.VisitAll(func(f *flag.Flag) {
		i := claim(f.Name)
		grouped[i] = append(grouped[i], f)
	})
	fmt.Fprintln(out, "Usage: jukesim [flags]")
	for i, sec := range sections {
		if len(grouped[i]) == 0 {
			continue
		}
		fmt.Fprintf(out, "\n%s:\n", sec.title)
		for _, f := range grouped[i] {
			name, help := flag.UnquoteUsage(f)
			if name != "" {
				name = " " + name
			}
			if f.DefValue != "" && f.DefValue != "0" && f.DefValue != "false" {
				help += fmt.Sprintf(" (default %s)", f.DefValue)
			}
			fmt.Fprintf(out, "  -%s%s\n    \t%s\n", f.Name, name, help)
		}
	}
}

// parseTenants decodes the -farm-tenants list: comma-separated
// mean[:rh] pairs, where mean is the class's Poisson interarrival in
// seconds and rh its hot-read percent (empty rh inherits -rh).
func parseTenants(s string) ([]tapejuke.TenantClass, error) {
	if s == "" {
		return nil, nil
	}
	var ts []tapejuke.TenantClass
	for i, part := range strings.Split(s, ",") {
		mean, rhStr, _ := strings.Cut(strings.TrimSpace(part), ":")
		t := tapejuke.TenantClass{Name: fmt.Sprintf("class%d", i)}
		if _, err := fmt.Sscanf(mean, "%g", &t.MeanInterarrivalSec); err != nil {
			return nil, fmt.Errorf("tenant %d: bad mean interarrival %q", i, mean)
		}
		if rhStr != "" {
			if _, err := fmt.Sscanf(rhStr, "%g", &t.ReadHotPercent); err != nil {
				return nil, fmt.Errorf("tenant %d: bad RH %q", i, rhStr)
			}
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// runFarm executes a farm simulation and prints its ledger: aggregate
// lines, the conservation identity, and a per-shard summary table.
func runFarm(fc tapejuke.FarmConfig, format string) int {
	fr, err := tapejuke.RunFarm(fc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jukesim:", err)
		return 1
	}
	if strings.ToLower(format) == "csv" {
		fmt.Println("shard,requests,completed,throughput_kbps,availability,p99_response_s,mean_queue")
		for s, r := range fr.Shards {
			fmt.Printf("%d,%d,%d,%.2f,%.4f,%.1f,%.1f\n",
				s, fr.Routed[s], r.Completed, r.ThroughputKBps, r.Availability, r.P99ResponseSec, r.MeanQueueLen)
		}
		fmt.Printf("total,%d,%d,%.2f,%.4f,%.1f,\n",
			fr.TotalArrivals, fr.Completed, fr.ThroughputKBps, fr.Availability, fr.P99ResponseSec)
		return 0
	}
	workers := fc.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("farm                 %d shards, %s placement, %d workers\n", fc.Shards, fr.Placement, workers)
	fmt.Printf("farm throughput      %.1f KB/s aggregate (%.3f requests/minute)\n", fr.ThroughputKBps, fr.RequestsPerMinute)
	fmt.Printf("farm response        mean %.1f s, p50 %.1f s, p99 %.1f s (completion-weighted)\n",
		fr.MeanResponseSec, fr.P50ResponseSec, fr.P99ResponseSec)
	fmt.Printf("farm availability    %.4f (%d unserviceable, %d failed over)\n",
		fr.Availability, fr.Unserviceable, fr.FailedOver)
	fmt.Printf("farm imbalance       requests %.3f max/mean, queue %.3f max/mean\n",
		fr.RequestImbalance, fr.QueueImbalance)
	sum := fr.TotalCompleted + fr.Expired + fr.Shed + fr.Unserviceable + fr.Outstanding
	verdict := "ok"
	if sum != fr.TotalArrivals {
		verdict = "VIOLATED"
	}
	fmt.Printf("farm conservation    %s (%d arrivals = %d completed + %d expired + %d shed + %d unserviceable + %d outstanding)\n",
		verdict, fr.TotalArrivals, fr.TotalCompleted, fr.Expired, fr.Shed, fr.Unserviceable, fr.Outstanding)
	fmt.Println("per-shard summary")
	fmt.Printf("  %5s %10s %10s %11s %8s %10s %11s\n",
		"shard", "requests", "completed", "tput_KB/s", "avail", "p99_s", "mean_queue")
	for s, r := range fr.Shards {
		fmt.Printf("  %5d %10d %10d %11.1f %8.4f %10.1f %11.1f\n",
			s, fr.Routed[s], r.Completed, r.ThroughputKBps, r.Availability, r.P99ResponseSec, r.MeanQueueLen)
	}
	if verdict != "ok" {
		return 1
	}
	return 0
}

// startCPUProfile begins CPU profiling into path and returns the stop
// function, or an error. The caller must defer the stop.
func startCPUProfile(path string) (func(), error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// writeMemProfile records an up-to-date heap profile at path.
func writeMemProfile(path, prog string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize the final live set
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing heap profile: %v\n", prog, err)
	}
}

func run() int {
	var (
		alg         = flag.String("alg", string(tapejuke.DynamicMaxBandwidth), "scheduling algorithm (see -list)")
		list        = flag.Bool("list", false, "list available algorithms and exit")
		profile     = flag.String("profile", "exb8505xl", "drive profile: exb8505xl, fast, dlt7000, or lto9")
		blockMB     = flag.Float64("block", 16, "transfer size in MB")
		tapes       = flag.Int("tapes", 10, "tapes in the jukebox")
		drives      = flag.Int("drives", 1, "drives sharing the tapes (multi-drive extension)")
		capMB       = flag.Float64("cap", 7168, "tape capacity in MB")
		ph          = flag.Float64("ph", 10, "percent of data that is hot (PH)")
		rh          = flag.Float64("rh", 40, "percent of requests to hot data (RH)")
		zipf        = flag.Float64("zipf", 0, "Zipf popularity exponent (>1; 0 = paper's hot/cold model)")
		dataMB      = flag.Float64("data", 0, "base data volume in MB (0 = fill the jukebox)")
		nr          = flag.Int("nr", 0, "replicas of each hot block (NR)")
		placement   = flag.String("placement", "horizontal", "hot layout: horizontal or vertical")
		sp          = flag.Float64("sp", 0, "hot region start position in [0,1] (SP)")
		rao         = flag.Bool("rao", false, "Recommended-Access-Order sweep reordering (serpentine profiles only)")
		queue       = flag.Int("queue", 60, "closed-model queue length (0 with -interarrival)")
		interarrive = flag.Float64("interarrival", 0, "open-model mean interarrival seconds (0 = closed)")
		horizon     = flag.Float64("horizon", 2e6, "simulated seconds")
		seed        = flag.Int64("seed", 1, "random seed")
		writeEvery  = flag.Float64("write-interarrival", 0, "mean seconds between delta writes (0 = no writes)")
		writePolicy = flag.String("write-policy", "piggyback", "delta flush policy: piggyback, idle-only, piggyback+idle")
		transient   = flag.Float64("fault-transient", 0, "transient read-error probability per attempt")
		badBlocks   = flag.Float64("fault-bad-blocks", 0, "expected bad-block ranges per tape")
		tapeMTBF    = flag.Float64("fault-tape-mtbf", 0, "mean seconds to permanent tape failure (0 = never)")
		driveMTBF   = flag.Float64("fault-drive-mtbf", 0, "mean seconds between drive failures (0 = never)")
		driveRepair = flag.Float64("fault-drive-repair", 0, "drive repair downtime seconds (default 3600 when enabled)")
		switchFail  = flag.Float64("fault-switch", 0, "tape load failure probability per attempt")
		latentPer   = flag.Float64("fault-latent", 0, "expected latent errors per tape (silent until read)")
		latentOnset = flag.Float64("fault-latent-onset", 0, "mean latent-error onset seconds (default 500000)")
		faultSeed   = flag.Int64("fault-seed", 0, "fault stream seed (0 = derive from -seed)")
		hotTTL      = flag.Float64("deadline-hot-ttl", 0, "mean TTL seconds for hot-block requests (0 = no deadline)")
		coldTTL     = flag.Float64("deadline-cold-ttl", 0, "mean TTL seconds for cold-block requests (0 = no deadline)")
		fixedTTL    = flag.Bool("deadline-fixed", false, "use the TTL means as exact deadlines instead of exponential draws")
		admitMax    = flag.Int("admit-max-queue", 0, "outstanding-request admission bound (0 = unbounded)")
		admitPolicy = flag.String("admit-policy", "none", "admission overflow policy: none, reject, shed")
		burstFactor = flag.Float64("burst-factor", 0, "arrival-rate multiplier while bursting")
		burstOnFrac = flag.Float64("burst-on-frac", 0, "fraction of an ON-OFF cycle spent bursting (open model)")
		burstPeriod = flag.Float64("burst-period", 0, "mean ON-OFF cycle seconds (0 = no modulation; open model)")
		flashAt     = flag.Float64("burst-flash-at", 0, "flash-crowd start time in seconds")
		flashLen    = flag.Float64("burst-flash-len", 0, "flash-crowd window seconds (open model)")
		flashCount  = flag.Int("burst-flash-count", 0, "one-shot flash-crowd request count (closed model)")
		ageWeight   = flag.Float64("age-weight", 0, "starvation-aware aging weight in tape selection (0 = off)")
		degradeQ    = flag.Int("degrade-queue", 0, "outstanding-request threshold for graceful degradation (0 = off)")
		degradeMax  = flag.Int("degrade-max-sweep", 0, "truncate sweeps to this many requests while overloaded")
		degradeDW   = flag.Bool("degrade-defer-writes", false, "defer delta-write flushes while overloaded")
		repairOn    = flag.Bool("repair", false, "rebuild lost replicas in drive idle time (self-healing replication)")
		repairHL    = flag.Float64("repair-half-life", 0, "block heat half-life seconds (default 100000)")
		repairProm  = flag.Float64("repair-promote", 0, "heat above which under-replicated blocks gain a copy (0 = off)")
		repairRecl  = flag.Float64("repair-reclaim", 0, "heat below which excess copies are reclaimed (0 = off)")
		repairMax   = flag.Int("repair-max-copies", 0, "cap on copies per block under promotion (default NR+1)")
		repairScan  = flag.Int("repair-scan-rate", 0, "blocks examined per idle scan (default 64)")
		healthOn    = flag.Bool("health", false, "proactive media health: scrubbing, scoring, evacuation, fencing")
		scrubRate   = flag.Int("scrub-rate", 0, "block positions patrolled per idle scrub op (0 = no scrubbing)")
		healthHL    = flag.Float64("health-half-life", 0, "error-score decay half-life seconds (default 100000)")
		healthWear  = flag.Float64("health-wear", 0, "wear hazard added to a tape's score per mount (0 = off)")
		healthSusp  = flag.Float64("health-suspect", 0, "score above which a tape is marked suspect (0 = off)")
		healthEvac  = flag.Bool("health-evacuate", false, "drain suspect tapes through the repair machinery")
		healthFence = flag.Float64("health-fence", 0, "score above which a drive is fenced for maintenance (0 = off)")
		healthMaint = flag.Float64("health-maintenance", 0, "fenced-drive maintenance seconds (default 3600)")
		farmShards  = flag.Int("farm-shards", 0, "simulate a farm of this many identical libraries (0 = single jukebox; needs -interarrival)")
		farmPlace   = flag.String("farm-placement", "local", "cross-library hot-copy placement: local, spread, or mirror")
		farmWorkers = flag.Int("farm-workers", 0, "goroutines simulating shards concurrently (0 = GOMAXPROCS; results identical at any value)")
		farmTenants = flag.String("farm-tenants", "", "aggregated arrival classes as mean[:rh] pairs, e.g. '120:90,600:10' (empty = one class at -interarrival/-rh)")
		format      = flag.String("format", "text", "output format: text or csv")
		analytic    = flag.Bool("analytic", false, "also print the closed-form estimate (no-replication closed models)")
		configPath  = flag.String("config", "", "load the full configuration from a JSON file (other workload flags are ignored)")
		dump        = flag.Bool("dump", false, "print the effective configuration as JSON and exit")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Usage = usage
	flag.Parse()

	if *cpuprofile != "" {
		stop, err := startCPUProfile(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jukesim:", err)
			return 1
		}
		defer stop()
	}
	if *memprofile != "" {
		defer writeMemProfile(*memprofile, "jukesim")
	}

	if *list {
		for _, a := range tapejuke.Algorithms() {
			fmt.Println(a)
		}
		return 0
	}

	var admit tapejuke.AdmitPolicy
	switch strings.ToLower(*admitPolicy) {
	case "", "none":
		admit = tapejuke.AdmitNone
	case "reject":
		admit = tapejuke.AdmitReject
	case "shed", "shed-oldest":
		admit = tapejuke.AdmitShed
	default:
		fmt.Fprintf(os.Stderr, "jukesim: unknown admission policy %q\n", *admitPolicy)
		return 1
	}

	cfg := tapejuke.Config{
		DriveProfile:        *profile,
		BlockMB:             *blockMB,
		TapeCapMB:           *capMB,
		Tapes:               *tapes,
		Drives:              *drives,
		HotPercent:          *ph,
		ReadHotPercent:      *rh,
		ZipfS:               *zipf,
		DataMB:              *dataMB,
		Replicas:            *nr,
		Placement:           tapejuke.Placement(*placement),
		StartPos:            *sp,
		RAO:                 *rao,
		Algorithm:           tapejuke.Algorithm(*alg),
		QueueLength:         *queue,
		MeanInterarrivalSec: *interarrive,
		HorizonSec:          *horizon,
		Seed:                *seed,
		Writes: tapejuke.WriteConfig{
			MeanInterarrivalSec: *writeEvery,
			Policy:              tapejuke.WritePolicy(*writePolicy),
		},
		Faults: tapejuke.FaultConfig{
			ReadTransientProb:   *transient,
			BadBlocksPerTape:    *badBlocks,
			TapeMTBFSec:         *tapeMTBF,
			DriveMTBFSec:        *driveMTBF,
			DriveRepairSec:      *driveRepair,
			SwitchFailProb:      *switchFail,
			LatentErrorsPerTape: *latentPer,
			LatentMeanOnsetSec:  *latentOnset,
			Seed:                *faultSeed,
		},
		Deadlines: tapejuke.DeadlineConfig{
			HotTTL:  *hotTTL,
			ColdTTL: *coldTTL,
			Fixed:   *fixedTTL,
		},
		Admission: tapejuke.AdmissionConfig{
			MaxQueue: *admitMax,
			Policy:   admit,
		},
		Burst: tapejuke.BurstConfig{
			Factor:     *burstFactor,
			OnFrac:     *burstOnFrac,
			Period:     *burstPeriod,
			FlashAt:    *flashAt,
			FlashLen:   *flashLen,
			FlashCount: *flashCount,
		},
		Repair: tapejuke.RepairConfig{
			Enable:      *repairOn,
			HalfLifeSec: *repairHL,
			PromoteHeat: *repairProm,
			ReclaimHeat: *repairRecl,
			MaxCopies:   *repairMax,
			ScanRate:    *repairScan,
		},
		Health: tapejuke.HealthConfig{
			Enable:          *healthOn,
			ScrubRate:       *scrubRate,
			ErrHalfLifeSec:  *healthHL,
			WearWeight:      *healthWear,
			SuspectScore:    *healthSusp,
			Evacuate:        *healthEvac,
			DriveFenceScore: *healthFence,
			MaintenanceSec:  *healthMaint,
		},
		Degrade: tapejuke.DegradeConfig{
			QueueThreshold: *degradeQ,
			MaxSweep:       *degradeMax,
			DeferWrites:    *degradeDW,
		},
		AgeWeight: *ageWeight,
	}
	if *interarrive > 0 {
		cfg.QueueLength = 0
	}
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jukesim:", err)
			return 1
		}
		cfg = tapejuke.Config{}
		if err := json.Unmarshal(data, &cfg); err != nil {
			fmt.Fprintln(os.Stderr, "jukesim: parsing config:", err)
			return 1
		}
	}
	if *dump {
		out, err := json.MarshalIndent(cfg.WithDefaults(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "jukesim:", err)
			return 1
		}
		fmt.Println(string(out))
		return 0
	}

	if *farmShards > 0 {
		tenants, err := parseTenants(*farmTenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, "jukesim:", err)
			return 1
		}
		return runFarm(tapejuke.FarmConfig{
			Shards:    *farmShards,
			Placement: tapejuke.FarmPlacement(*farmPlace),
			Workers:   *farmWorkers,
			Tenants:   tenants,
			Base:      cfg,
		}, *format)
	}

	res, err := tapejuke.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jukesim:", err)
		return 1
	}

	if *analytic {
		if cfg.MeanInterarrivalSec > 0 {
			a, err := tapejuke.AssessOpenLoad(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jukesim: analytic assessment unavailable:", err)
			} else {
				state := "light"
				if a.Saturated {
					state = "SATURATED (backlog diverges)"
				}
				fmt.Printf("analytic assessment  offered %.1f KB/s vs ceiling %.1f KB/s (utilization %.2f, %s)\n",
					a.OfferedKBps, a.SaturationKBps, a.Utilization, state)
			}
		} else {
			est, err := tapejuke.Analyze(cfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "jukesim: analytic estimate unavailable:", err)
			} else {
				fmt.Printf("analytic estimate    %.1f KB/s (%.1f requests per sweep, %.0f s cycle)\n",
					est.ThroughputKBps, est.RequestsPerSweep, est.CycleSeconds)
			}
		}
	}

	switch strings.ToLower(*format) {
	case "csv":
		fmt.Println("scheduler,throughput_kbps,req_per_min,mean_response_s,p50_response_s,p95_response_s,p99_response_s,tape_switches,mean_queue,deadline_miss_rate,shed,rejected")
		fmt.Printf("%s,%.2f,%.4f,%.1f,%.1f,%.1f,%.1f,%d,%.1f,%.4f,%d,%d\n",
			res.SchedulerName, res.ThroughputKBps, res.RequestsPerMinute,
			res.MeanResponseSec, res.P50ResponseSec, res.P95ResponseSec, res.P99ResponseSec,
			res.TapeSwitches, res.MeanQueueLen, res.DeadlineMissRate, res.Shed, res.Rejected)
	default:
		stream, _ := tapejuke.StreamingRateKBps(cfg.DriveProfile)
		fmt.Printf("scheduler            %s\n", res.SchedulerName)
		fmt.Printf("simulated            %.0f s (%.0f s measured after warm-up)\n", res.SimSeconds, res.MeasuredSeconds)
		fmt.Printf("completed            %d requests (%d switches)\n", res.Completed, res.TapeSwitches)
		fmt.Printf("throughput           %.1f KB/s (%.1f%% of streaming)\n", res.ThroughputKBps, 100*res.ThroughputKBps/stream)
		fmt.Printf("requests/minute      %.3f\n", res.RequestsPerMinute)
		fmt.Printf("response time        mean %.1f s, p50 %.1f s, p95 %.1f s, p99 %.1f s, max %.1f s\n",
			res.MeanResponseSec, res.P50ResponseSec, res.P95ResponseSec, res.P99ResponseSec, res.MaxResponseSec)
		fmt.Printf("time breakdown       locate %.0f s, read %.0f s, switch %.0f s, idle %.0f s\n",
			res.LocateSeconds, res.ReadSeconds, res.SwitchSeconds, res.IdleSeconds)
		fmt.Printf("mean queue length    %.1f\n", res.MeanQueueLen)
		if cfg.Writes.MeanInterarrivalSec > 0 {
			fmt.Printf("writes               %d flushed (%.0f s drive time), mean residence %.0f s, peak buffer %d blocks\n",
				res.WritesFlushed, res.WriteSeconds, res.MeanWriteDelaySec, res.MaxBufferedWrites)
		}
		if cfg.Faults.Enabled() {
			fmt.Printf("faults               %d transient (%d retries), %d permanent, %d switch; %.0f s lost\n",
				res.TransientFaults, res.Retries, res.PermanentFaults, res.SwitchFaults, res.FaultSeconds)
			fmt.Printf("failures             %d tapes, %d drive repairs (%.0f s down)\n",
				res.TapeFailures, res.DriveFailures, res.DriveRepairSeconds)
			fmt.Printf("availability         %.4f (%d unserviceable, %d rerouted, mean recovery %.1f s)\n",
				res.Availability, res.Unserviceable, res.Rerouted, res.MeanRecoverySec)
			if cfg.Faults.LatentErrorsPerTape > 0 {
				fmt.Printf("latent errors        %d injected, %d found, mean time to detect %.0f s\n",
					res.LatentErrorsInjected, res.LatentErrorsFound, res.MeanTimeToDetectSec)
			}
		}
		if cfg.Deadlines.Enabled() {
			fmt.Printf("deadlines            %d expired, %d late completions, miss rate %.4f\n",
				res.Expired, res.LateCompletions, res.DeadlineMissRate)
		}
		if cfg.Admission.Enabled() {
			fmt.Printf("admission            %d shed, %d rejected (bound %d, policy %s)\n",
				res.Shed, res.Rejected, cfg.Admission.MaxQueue, cfg.Admission.Policy)
		}
		if cfg.Deadlines.Enabled() || cfg.Admission.Enabled() {
			fmt.Printf("max queue age        %.0f s\n", res.MaxQueueAgeSec)
		}
		if cfg.Degrade.Enabled() {
			fmt.Printf("degradation          %d truncated sweeps, %d deferred flushes\n",
				res.TruncatedSweeps, res.DeferredFlushes)
		}
		if cfg.Repair.Enabled() {
			fmt.Printf("repair               %d jobs, %d copies rebuilt, %d reclaimed (%.0f s drive time)\n",
				res.RepairJobs, res.RepairedCopies, res.ReclaimedCopies, res.RepairSeconds)
			fmt.Printf("mean time to repair  %.0f s\n", res.MeanTimeToRepairSec)
		}
		if cfg.Health.Enabled() {
			fmt.Printf("health               %.0f MB scrubbed (%.0f s), %d latent found by scrub\n",
				res.ScrubbedMB, res.ScrubSeconds, res.LatentFoundByScrub)
			fmt.Printf("media                %d suspect tapes, %d evacuated (%d jobs, %d copies moved), %d drives fenced\n",
				res.SuspectTapes, res.EvacuatedTapes, res.EvacuationJobs, res.EvacuatedCopies, res.FencedDrives)
		}
	}
	return 0
}
