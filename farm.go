package tapejuke

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"

	"tapejuke/internal/farm"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/pool"
	"tapejuke/internal/workload"
)

// FarmPlacement selects how hot-data copies are distributed across the
// farm's libraries: FarmLocal ("local"), FarmSpread ("spread") or
// FarmMirror ("mirror"); see the internal farm.Policy values for semantics.
type FarmPlacement = farm.Policy

const (
	// FarmLocal keeps the NR replicas inside each block's one home
	// library (the paper's scheme, hash-partitioned across libraries).
	FarmLocal FarmPlacement = farm.PlaceLocal
	// FarmSpread puts the NR+1 copies of each hot block on NR+1 distinct
	// libraries, with request rotation and failover between them.
	FarmSpread FarmPlacement = farm.PlaceSpread
	// FarmMirror mirrors the whole farm-wide hot set onto every library.
	FarmMirror FarmPlacement = farm.PlaceMirror
)

// TenantClass is one arrival class of the aggregated farm workload. The
// farm-level request rate is the sum over tenants; "millions of users"
// shows up as classes, not as a queue-length knob.
type TenantClass struct {
	// Name labels the class in diagnostics.
	Name string
	// MeanInterarrivalSec is the class's Poisson mean gap in seconds.
	MeanInterarrivalSec float64
	// ReadHotPercent is the class's RH; zero inherits the base config's.
	ReadHotPercent float64
}

// FarmConfig describes a farm of identical jukebox libraries fed by one
// aggregated open-model request stream through a hash router.
type FarmConfig struct {
	// Shards is the number of libraries (>= 1).
	Shards int
	// Placement distributes hot copies across libraries (default
	// FarmLocal; any policy collapses to FarmLocal at Shards == 1).
	Placement FarmPlacement
	// Workers bounds the goroutines simulating shards concurrently
	// (0 = GOMAXPROCS). Results are byte-identical at any worker count.
	Workers int
	// Tenants, when non-empty, aggregates several arrival classes.
	// Empty means one class at the base config's rate and skew.
	Tenants []TenantClass
	// Base configures each library and the per-library workload knobs.
	// It must use the open model (MeanInterarrivalSec > 0); the writes,
	// Zipf, and sequential extensions are per-library concerns the
	// router cannot split and are rejected.
	Base Config
	// ShardObserver, when non-nil, supplies one event observer per
	// shard index (Base.Observer must be nil: shards run concurrently,
	// so a shared observer would interleave nondeterministically).
	ShardObserver func(shard int) Observer `json:"-"`
}

// FarmResult aggregates one farm run. Per-shard metrics stay available in
// Shards; the scalars are deterministic shard-order reductions.
type FarmResult struct {
	// Shards holds each library's full Result, indexed by shard.
	Shards []*Result
	// Placement echoes the effective placement policy.
	Placement FarmPlacement
	// Routed counts requests the router sent to each shard; FailedOver
	// counts requests that skipped at least one dead copy holder.
	Routed     []int64
	FailedOver int64

	// Conservation ledger, whole-run, summed over shards:
	// TotalArrivals = TotalCompleted + Expired + Shed + Unserviceable +
	// Outstanding. (Rejected arrivals are turned away before minting and
	// so are not part of TotalArrivals, as in the single-library model.)
	TotalArrivals  int64
	TotalCompleted int64
	Expired        int64
	Shed           int64
	Rejected       int64
	Unserviceable  int64
	Outstanding    int64

	// Completed counts post-warmup completions; ThroughputKBps and
	// RequestsPerMinute are farm-wide sums over the common measurement
	// window.
	Completed         int64
	ThroughputKBps    float64
	RequestsPerMinute float64

	// MeanResponseSec is the completion-weighted mean over shards.
	// P50/P99 are completion-weighted quantiles over the per-shard
	// percentile scalars — an approximation (each shard summarizes its
	// own distribution first), good enough to rank placements.
	MeanResponseSec float64
	P50ResponseSec  float64
	P99ResponseSec  float64

	// Availability is post-warmup farm completions over completions plus
	// the whole run's abandoned-every-copy-lost requests (a shard's
	// Result.Availability counts only the post-warmup ones).
	Availability float64

	// RequestImbalance is max/mean over Routed; QueueImbalance is
	// max/mean over the shards' time-averaged queue lengths. 1.0 is a
	// perfectly balanced farm.
	RequestImbalance float64
	QueueImbalance   float64
}

// shardSeed spaces shard RNG universes the way replications are spaced
// elsewhere in the repo; shard 0 keeps the base seed, which is what makes
// a 1-shard farm bit-identical to a plain run.
func shardSeed(base int64, shard int) int64 { return base + int64(shard)*7919 }

// RunFarm simulates a farm of Shards identical libraries: it derives each
// library's layout from the placement policy, generates and routes the
// aggregated arrival stream, runs every shard's full discrete-event
// simulation (concurrently, on up to Workers goroutines), and merges the
// results deterministically. The merged result is byte-identical at any
// worker count, and a 1-shard farm reproduces Runner.Run of Base exactly.
func RunFarm(fc FarmConfig) (*FarmResult, error) {
	base := fc.Base.WithDefaults()
	pol, err := validateFarm(fc, base)
	if err != nil {
		return nil, err
	}
	n := fc.Shards

	cfgs := make([]Config, n)
	var traces []farm.Trace
	var lay *layout.Layout // the planned shard layout (multi-shard runs)
	routed := make([]int64, n)
	var failedOver int64
	if n == 1 {
		// The farm layer is inert at one shard: no routing decision
		// exists, every placement stores the same blocks, and the shard
		// runs Base verbatim (trace-free), so the event stream is the
		// plain single-library one.
		cfgs[0] = base
	} else {
		shardCfg, sl, split, err := splitFarm(fc, base, pol)
		if err != nil {
			return nil, err
		}
		lay, traces, routed, failedOver = sl, split.Traces, split.Routed, split.FailedOver
		for i := range cfgs {
			cfgs[i] = shardCfg
			cfgs[i].Seed = shardSeed(base.Seed, i)
		}
	}
	if fc.ShardObserver != nil {
		for i := range cfgs {
			cfgs[i].Observer = fc.ShardObserver(i)
		}
	}

	results, err := runShards(cfgs, traces, lay, base.Seed, fc.Workers)
	if err != nil {
		return nil, err
	}
	if n == 1 {
		routed[0] = results[0].TotalArrivals
	}
	return mergeFarm(results, routed, failedOver, pol), nil
}

// splitFarm is the pre-pass of a multi-shard farm: it plans the
// placement, projects copy deaths for the router, and routes the
// aggregated arrival stream into per-shard traces. It returns the shard
// configuration (seed aside), the planned shard layout and the split.
func splitFarm(fc FarmConfig, base Config, pol farm.Policy) (Config, *layout.Layout, *farm.SplitResult, error) {
	n := fc.Shards
	shardCfg, lay, capBlocks, fh, fcold, err := planPlacement(base, n, pol)
	if err != nil {
		return Config{}, nil, nil, err
	}
	dead, err := projectDeaths(shardCfg, lay, capBlocks, base.Seed, n, pol)
	if err != nil {
		return Config{}, nil, nil, err
	}
	tenants, err := farmTenants(fc, base)
	if err != nil {
		return Config{}, nil, nil, err
	}
	split, err := farm.Split(farm.SplitConfig{
		Shards:    n,
		Policy:    pol,
		Copies:    base.Replicas,
		FarmHot:   fh,
		FarmCold:  fcold,
		LocalHot:  lay.NumHot(),
		LocalCold: lay.NumCold(),
		HotDeadAt: dead,
		Horizon:   base.HorizonSec,
		Tenants:   tenants,
		Seed:      base.Seed + 6,
	})
	if err != nil {
		return Config{}, nil, nil, err
	}
	return shardCfg, lay, split, nil
}

// validateFarm checks the farm-specific configuration surface and
// resolves the placement policy.
func validateFarm(fc FarmConfig, base Config) (farm.Policy, error) {
	if fc.Shards < 1 {
		return "", fmt.Errorf("tapejuke: farm needs at least one shard, got %d", fc.Shards)
	}
	pol := fc.Placement
	switch pol {
	case "":
		pol = farm.PlaceLocal
	case farm.PlaceLocal, farm.PlaceSpread, farm.PlaceMirror:
	default:
		return "", fmt.Errorf("tapejuke: unknown farm placement %q", pol)
	}
	if fc.Shards == 1 {
		// Every policy stores the same single-library layout at N=1.
		pol = farm.PlaceLocal
	}
	if base.MeanInterarrivalSec <= 0 || base.QueueLength > 0 {
		return "", errors.New("tapejuke: a farm aggregates open-model arrivals; set Base.MeanInterarrivalSec and leave QueueLength zero")
	}
	if base.Writes.MeanInterarrivalSec > 0 {
		return "", errors.New("tapejuke: the farm router cannot split the write extension's delta stream")
	}
	if base.ZipfS > 0 || base.SequentialProb > 0 {
		return "", errors.New("tapejuke: farm workloads use the two-class skew (ZipfS and SequentialProb unsupported)")
	}
	if base.Observer != nil {
		return "", errors.New("tapejuke: shards run concurrently; use FarmConfig.ShardObserver instead of Base.Observer")
	}
	if base.Burst.Enabled() && len(fc.Tenants) > 1 {
		return "", errors.New("tapejuke: burst modulation supports a single tenant class")
	}
	if pol == farm.PlaceSpread && base.Replicas+1 > fc.Shards {
		return "", fmt.Errorf("tapejuke: spread placement cannot put %d copies on %d libraries; lower Replicas or add shards",
			base.Replicas+1, fc.Shards)
	}
	for i, t := range fc.Tenants {
		if t.MeanInterarrivalSec <= 0 {
			return "", fmt.Errorf("tapejuke: tenant %d needs a positive mean interarrival", i)
		}
		if t.ReadHotPercent < 0 || t.ReadHotPercent > 100 {
			return "", fmt.Errorf("tapejuke: tenant %d RH %v out of [0,100]", i, t.ReadHotPercent)
		}
	}
	return pol, nil
}

// planPlacement derives the per-shard library configuration for the
// placement policy, the layout of it with its per-tape capacity in blocks,
// and the farm-wide hot/cold universe sizes. All shards share one
// geometry; only seeds differ. The layout is built once, here: the death
// projection reads it and every shard runs on it unless repair gives the
// shard a private copy to mutate.
//
// Storage accounting keeps the expansion factor E equal between FarmLocal
// and FarmSpread: under FarmLocal one library stores Hl hot blocks with
// NR+1 tape copies each plus Cl cold blocks; under FarmSpread it stores
// (NR+1)*Hl distinct hot blocks (each a single tape copy, the other
// copies living on other libraries) plus Cl cold blocks — the same block
// count, so the same E. FarmMirror stores the whole farm hot set (N*Hl)
// everywhere and is the expensive end of the trade.
func planPlacement(base Config, n int, pol farm.Policy) (shardCfg Config, lay *layout.Layout, capBlocks, farmHot, farmCold int, err error) {
	sc, err := base.toSim()
	if err != nil {
		return Config{}, nil, 0, 0, 0, err
	}
	layCfg, capBlocks, err := sc.LayoutConfig()
	if err != nil {
		return Config{}, nil, 0, 0, 0, err
	}
	// Only the base geometry's block counts matter here: the one layout
	// built below is the shards' (the base itself only under local).
	blocks, hl, err := layout.Counts(layCfg)
	if err != nil {
		return Config{}, nil, 0, 0, 0, fmt.Errorf("tapejuke: %w", err)
	}
	cl := blocks - hl
	farmHot, farmCold = n*hl, n*cl
	shardCfg = base
	if pol != farm.PlaceLocal {
		storedHot := hl * (1 + base.Replicas) // spread: local's block count, so local's E
		if pol == farm.PlaceMirror {
			storedHot = n * hl
		}
		stored := storedHot + cl
		shardCfg.Replicas = 0
		shardCfg.DataMB = float64(stored) * base.BlockMB
		shardCfg.HotPercent = 100 * float64(storedHot) / float64(stored)
		// Re-derive the layout configuration the shards run: integer
		// rounding in the hot count must match the engine exactly, not
		// the intent.
		ssc, err := shardCfg.toSim()
		if err != nil {
			return Config{}, nil, 0, 0, 0, err
		}
		if layCfg, capBlocks, err = ssc.LayoutConfig(); err != nil {
			return Config{}, nil, 0, 0, 0, err
		}
	}
	lay, err = layout.Build(layCfg)
	if err != nil {
		if pol == farm.PlaceMirror {
			return Config{}, nil, 0, 0, 0, fmt.Errorf("tapejuke: mirrored hot set (%d blocks per library) does not fit: %w", n*hl, err)
		}
		return Config{}, nil, 0, 0, 0, fmt.Errorf("tapejuke: %w", err)
	}
	return shardCfg, lay, capBlocks, farmHot, farmCold, nil
}

// projectDeaths pre-computes, per shard, when each local hot block of the
// shard layout lay (capBlocks blocks per tape) loses its last in-library
// copy, by replaying the deterministic fault streams each shard's engine
// will draw (tape failure times and permanent bad-block ranges are fixed
// at injector construction). The router uses the projection for failover
// under spread/mirror placement. Latent errors surface only when read, so
// they stay invisible to the router — the shard handles them like a
// single library would. Returns nil when no copy-killing fault class is
// enabled or the policy has no failover.
func projectDeaths(shardCfg Config, lay *layout.Layout, capBlocks int, baseSeed int64, n int, pol farm.Policy) ([][]float64, error) {
	if pol == farm.PlaceLocal {
		return nil, nil
	}
	fcf := shardCfg.Faults.toFaults()
	if fcf.TapeMTBFSec <= 0 && fcf.BadBlocksPerTape <= 0 {
		return nil, nil
	}
	drives := shardCfg.Drives
	if drives < 1 {
		drives = 1
	}
	dead := make([][]float64, n)
	for s := 0; s < n; s++ {
		fi := fcf
		if fi.Seed == 0 {
			fi.Seed = shardSeed(baseSeed, s) + 3
		}
		inj, err := faults.New(fi, shardCfg.Tapes, drives, capBlocks)
		if err != nil {
			return nil, fmt.Errorf("tapejuke: %w", err)
		}
		row := make([]float64, lay.NumHot())
		for b := range row {
			// A block dies when its last copy does; a copy inside a
			// permanent bad-block range is dead from the start.
			at := 0.0
			for _, cp := range lay.Replicas(layout.BlockID(b)) {
				copyAt := inj.TapeFailTime(cp.Tape)
				if inj.CopyDead(cp.Tape, cp.Pos) {
					copyAt = 0
				}
				if copyAt > at {
					at = copyAt
				}
			}
			row[b] = at
		}
		dead[s] = row
	}
	return dead, nil
}

// farmTenants builds the aggregated arrival classes. Tenant 0's stream
// derives from Seed+1 — the same universe a plain run's Poisson arrivals
// use — and later tenants space theirs like replications do.
func farmTenants(fc FarmConfig, base Config) ([]farm.Tenant, error) {
	mk := func(mean float64, idx int) (workload.Arrivals, error) {
		seed := base.Seed + 1 + int64(idx)*7919
		if b := base.Burst; b.Enabled() {
			if b.Seed != 0 {
				seed = b.Seed
			} else {
				seed = base.Seed + 5
			}
			return workload.NewBurstArrivals(mean, b.Factor, b.OnFrac, b.Period, b.FlashAt, b.FlashLen, seed)
		}
		return workload.NewPoissonArrivals(mean, seed)
	}
	if len(fc.Tenants) == 0 {
		arr, err := mk(base.MeanInterarrivalSec, 0)
		if err != nil {
			return nil, err
		}
		return []farm.Tenant{{Arrivals: arr, HotFrac: base.ReadHotPercent / 100}}, nil
	}
	ts := make([]farm.Tenant, len(fc.Tenants))
	for i, t := range fc.Tenants {
		arr, err := mk(t.MeanInterarrivalSec, i)
		if err != nil {
			return nil, err
		}
		rh := t.ReadHotPercent
		if rh == 0 {
			rh = base.ReadHotPercent
		}
		ts[i] = farm.Tenant{Arrivals: arr, HotFrac: rh / 100}
	}
	return ts, nil
}

// runShards simulates every shard configuration on the worker pool, with
// up to workers goroutines (GOMAXPROCS when workers <= 0). Each worker
// owns one Runner (cached layouts, cost tables, scratch), handed the
// planned layout lay when there is one; results land in per-shard slots,
// so the outcome is independent of the claim order.
func runShards(cfgs []Config, traces []farm.Trace, lay *layout.Layout, baseSeed int64, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(cfgs))
	errs := pool.Each(len(cfgs), workers, NewRunner, func(rn *Runner, i int) (err error) {
		results[i], err = rn.runShard(cfgs[i], traces, lay, i, baseSeed)
		return err
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tapejuke: shard %d: %w", i, err)
		}
	}
	return results, nil
}

// runShard runs one shard on this Runner, replaying its routed trace when
// the farm materialized one (multi-shard runs). The trace replaces both
// the arrival clock and the block generator; everything else — layout,
// scheduler, faults, overload machinery — is the ordinary per-library
// simulation. A planned layout lay is shared with the session, which runs
// on it only when the shard's layout configuration equals lay's and the
// shard does not repair (see sim.Session.ShareLayout).
func (r *Runner) runShard(c Config, traces []farm.Trace, lay *layout.Layout, shard int, baseSeed int64) (*Result, error) {
	sc, err := r.prepare(c)
	if err != nil {
		return nil, err
	}
	if traces != nil {
		tr := &traces[shard]
		sc.Arrivals = workload.NewTraceArrivals(tr.Times)
		sc.Source = workload.NewTraceSource(tr.Blocks, shardSeed(baseSeed, shard))
	}
	if lay != nil {
		r.sess.ShareLayout(lay)
	}
	return r.sess.Run(*sc)
}

// mergeFarm reduces per-shard results in shard order (deterministic
// float summation) into the aggregate FarmResult.
func mergeFarm(results []*Result, routed []int64, failedOver int64, pol farm.Policy) *FarmResult {
	fr := &FarmResult{
		Shards:     results,
		Placement:  pol,
		Routed:     routed,
		FailedOver: failedOver,
	}
	for _, r := range results {
		fr.TotalArrivals += r.TotalArrivals
		fr.TotalCompleted += r.TotalCompleted
		fr.Expired += r.Expired
		fr.Shed += r.Shed
		fr.Rejected += r.Rejected
		fr.Unserviceable += r.Unserviceable
		fr.Completed += r.Completed
		fr.ThroughputKBps += r.ThroughputKBps
		fr.RequestsPerMinute += r.RequestsPerMinute
		fr.MeanResponseSec += float64(r.Completed) * r.MeanResponseSec
	}
	fr.Outstanding = fr.TotalArrivals - fr.TotalCompleted - fr.Expired - fr.Shed - fr.Unserviceable
	if fr.Completed > 0 {
		fr.MeanResponseSec /= float64(fr.Completed)
	} else {
		fr.MeanResponseSec = 0
	}
	fr.P50ResponseSec = weightedQuantile(results, 0.50, func(r *Result) float64 { return r.P50ResponseSec })
	fr.P99ResponseSec = weightedQuantile(results, 0.99, func(r *Result) float64 { return r.P99ResponseSec })
	if fr.Completed+fr.Unserviceable > 0 {
		fr.Availability = float64(fr.Completed) / float64(fr.Completed+fr.Unserviceable)
	} else {
		fr.Availability = 1
	}
	fr.RequestImbalance = maxOverMeanInt(routed)
	queues := make([]float64, len(results))
	for i, r := range results {
		queues[i] = r.MeanQueueLen
	}
	fr.QueueImbalance = maxOverMean(queues)
	return fr
}

// weightedQuantile takes the completion-weighted q-quantile of a
// per-shard scalar: shards sorted by value (ties by index), pick the
// first whose cumulative completion weight reaches q of the total.
func weightedQuantile(results []*Result, q float64, val func(*Result) float64) float64 {
	type wv struct {
		v float64
		w int64
	}
	var total int64
	vs := make([]wv, 0, len(results))
	for _, r := range results {
		if r.Completed > 0 {
			vs = append(vs, wv{val(r), r.Completed})
			total += r.Completed
		}
	}
	if total == 0 {
		return 0
	}
	sort.SliceStable(vs, func(i, j int) bool { return vs[i].v < vs[j].v })
	need := q * float64(total)
	var cum int64
	for _, e := range vs {
		cum += e.w
		if float64(cum) >= need {
			return e.v
		}
	}
	return vs[len(vs)-1].v
}

// maxOverMeanInt returns max/mean of non-negative counts (1 when the
// mean is zero: an empty farm is trivially balanced).
func maxOverMeanInt(xs []int64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return maxOverMean(fs)
}

func maxOverMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var max, sum float64
	for _, x := range xs {
		sum += x
		if x > max {
			max = x
		}
	}
	mean := sum / float64(len(xs))
	if mean <= 0 || math.IsNaN(mean) {
		return 1
	}
	return max / mean
}
