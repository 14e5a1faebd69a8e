package farm

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"tapejuke/internal/layout"
	"tapejuke/internal/workload"
)

// Policy selects where the farm lands the cross-library copies of hot
// data. All policies store the same cold data (hash-partitioned, one copy
// farm-wide); they differ in how many libraries hold each hot block. The
// empty string is PlaceLocal; Split rejects any other value.
type Policy string

const (
	// PlaceLocal keeps replication inside each library: every hot block
	// lives on exactly one library, which holds NR+1 in-library tape
	// copies (the paper's §4.4 scheme, scaled out by hashing blocks to
	// libraries). The router has exactly one destination per block.
	PlaceLocal Policy = "local"
	// PlaceSpread puts the NR+1 copies of each hot block on NR+1
	// *different* libraries (the block's rendezvous preference list), one
	// tape copy per library. The router rotates requests over the
	// holders and fails over when a holder's copy has died.
	PlaceSpread Policy = "spread"
	// PlaceMirror mirrors the entire farm-wide hot set onto every
	// library. Any library can serve any hot request; storage cost grows
	// with the shard count instead of NR.
	PlaceMirror Policy = "mirror"
)

// Tenant is one open-model arrival class of the aggregated farm workload:
// an arrival process plus the fraction of its requests aimed at hot data.
// Farm load is the superposition of all tenants' streams.
type Tenant struct {
	// Arrivals is the tenant's (already seeded) open arrival process.
	Arrivals workload.Arrivals
	// HotFrac in [0,1] is the fraction of the tenant's requests that
	// target the farm's hot set.
	HotFrac float64
}

// SplitConfig describes the aggregated workload and farm geometry the
// front end routes over.
type SplitConfig struct {
	Shards int
	Policy Policy
	// Copies is the number of extra cross-library copies of each hot
	// block under PlaceSpread (the farm-level NR); ignored otherwise.
	Copies int

	// FarmHot and FarmCold are the farm-wide distinct hot and cold block
	// counts; requests draw uniformly within each class, as in the
	// paper's two-class skew.
	FarmHot  int
	FarmCold int
	// LocalHot and LocalCold are one library's stored hot and cold block
	// counts (every shard runs the same layout geometry). Farm blocks
	// map onto local blocks by stable hashing.
	LocalHot  int
	LocalCold int

	// HotDeadAt, when non-nil, holds for each shard the time at which
	// each local hot block becomes permanently unreadable on that shard
	// (+Inf = never), projected from the shard's deterministic fault
	// streams. The router consults it to fail over between copy holders.
	HotDeadAt [][]float64

	// Horizon bounds the generated stream; Tenants drive it; Seed feeds
	// the class/key draws (one stream, one Float64 + one Intn per
	// arrival, so routing policy never perturbs the workload).
	Horizon float64
	Tenants []Tenant
	Seed    int64
}

// Trace is one library's routed request sub-stream: arrival times and the
// shard-local block each request asks for, in arrival order.
type Trace struct {
	Times  []float64
	Blocks []layout.BlockID
}

// SplitResult is the routed farm workload.
type SplitResult struct {
	// Traces has one entry per shard.
	Traces []Trace
	// Routed counts requests sent to each shard.
	Routed []int64
	// FailedOver counts requests that skipped at least one dead copy
	// holder before landing (spread/mirror only).
	FailedOver int64
	// Total is the aggregate request count across all shards.
	Total int64
}

// maxSplitRequests bounds the materialized farm stream; beyond this the
// configuration is almost certainly a units mistake, not a workload.
const maxSplitRequests = 100_000_000

// shardSalt decorrelates the per-shard block-mapping hash from the
// routing hash.
func shardSalt(s int) uint64 {
	return mix64(uint64(s) + 0xd6e8feb86659fd93)
}

// hotKey and coldKey embed the block class in the routing key so hot and
// cold universes hash independently.
func hotKey(b int) uint64  { return uint64(b)<<1 | 1 }
func coldKey(b int) uint64 { return uint64(b) << 1 }

// Split generates the aggregated multi-tenant arrival stream, routes
// every request to a shard under the placement policy, and materializes
// the per-shard traces. It is a pure function of its configuration: the
// same SplitConfig always yields byte-identical traces.
func Split(cfg SplitConfig) (*SplitResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rt, err := newRoutes(&cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &SplitResult{
		Traces: make([]Trace, cfg.Shards),
		Routed: make([]int64, cfg.Shards),
	}

	// The tenants' streams merge by repeatedly taking the earliest next
	// arrival; ties break toward the lower tenant index so the merge is
	// total and deterministic.
	next := make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		next[i] = t.Arrivals.Next()
	}

	dead := cfg.HotDeadAt
	var seq int64
	sizeAt := cfg.Horizon / 4
	for {
		ten := -1
		for i, t := range next {
			if !math.IsInf(t, 1) && (ten < 0 || t < next[ten]) {
				ten = i
			}
		}
		if ten < 0 || next[ten] >= cfg.Horizon {
			break
		}
		at := next[ten]
		next[ten] = cfg.Tenants[ten].Arrivals.Next()
		if at >= sizeAt {
			res.sizeTraces(at, cfg.Horizon)
			sizeAt = math.Inf(1)
		}

		// One Float64 (class) + one Intn (key) per arrival, always in
		// this order, so the key stream is invariant across policies.
		classDraw := rng.Float64()
		hot := classDraw < cfg.Tenants[ten].HotFrac
		if cfg.FarmCold == 0 {
			hot = true
		} else if cfg.FarmHot == 0 {
			hot = false
		}
		var to route
		if hot {
			key := rng.Intn(cfg.FarmHot)
			holders := rt.hot[key*rt.k : (key+1)*rt.k]
			start := Rotate(hotKey(key), seq, len(holders))
			// When every holder has lost its copy the request goes to the
			// rotation target anyway; the shard will count it
			// unserviceable, exactly as a single library would.
			to = holders[start]
			for j := range holders {
				h := holders[(start+j)%len(holders)]
				// A holder without a projection counts as alive: the shard
				// handles its own faults, the router cannot anticipate them.
				if dead == nil || dead[h.shard] == nil || dead[h.shard][h.local] > at {
					if j > 0 {
						res.FailedOver++
					}
					to = h
					break
				}
			}
		} else {
			to = rt.cold[rng.Intn(cfg.FarmCold)]
		}

		tr := &res.Traces[to.shard]
		tr.Times = append(tr.Times, at)
		tr.Blocks = append(tr.Blocks, layout.BlockID(to.local))
		res.Routed[to.shard]++
		res.Total++
		seq++
		if res.Total > maxSplitRequests {
			return nil, fmt.Errorf("farm: aggregated stream exceeds %d requests; check rates and horizon", maxSplitRequests)
		}
	}
	return res, nil
}

// route is one place a farm key's requests can land: a shard and the
// shard-local block the key maps to there.
type route struct {
	shard int32
	local int32
}

// routes holds the routing of every farm key, computed once per split: a
// hot key's holders in preference order, each with its local block, and a
// cold key's owner with its local block. Each key costs its rendezvous
// scores and block hashes once, however often it recurs; only the rotation
// over the holders, which depends on the request's sequence number, and
// the dead test stay per arrival.
type routes struct {
	k    int     // holders per hot key
	hot  []route // FarmHot runs of k holders, key-major
	cold []route // one per farm cold key
}

// newRoutes routes every farm key. A hot key's holders are the order
// requests rotate over them: the top Copies+1 of its rendezvous preference
// under spread, its owner under local, and every shard in index order
// under mirror.
func newRoutes(cfg *SplitConfig) (*routes, error) {
	r, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	k := 1 // PlaceLocal: the owner holds every copy
	switch cfg.Policy {
	case PlaceSpread:
		k = cfg.Copies + 1
	case PlaceMirror:
		k = cfg.Shards
	}
	rt := &routes{k: k, hot: make([]route, 0, cfg.FarmHot*k), cold: make([]route, cfg.FarmCold)}
	var pref []int
	for key := 0; key < cfg.FarmHot; key++ {
		if cfg.Policy == PlaceMirror {
			for s := 0; s < k; s++ {
				rt.hot = append(rt.hot, route{int32(s), int32(cfg.localHot(s, key))})
			}
			continue
		}
		pref = r.Prefer(hotKey(key), k, pref)
		for _, s := range pref {
			rt.hot = append(rt.hot, route{int32(s), int32(cfg.localHot(s, key))})
		}
	}
	for key := range rt.cold {
		s := r.Owner(coldKey(key))
		rt.cold[key] = route{int32(s), int32(cfg.localCold(s, key))}
	}
	return rt, nil
}

// sizeTraces grows every shard's trace once, when the merge first reaches
// `at`, to the count its arrivals so far project over the whole horizon
// plus four standard deviations of that projection: a steady stream then
// fills the trace without regrowing it. The projection scales a Poisson
// count by horizon/at, so its standard deviation is sqrt(est*horizon/at),
// twice a Poisson count's own at a quarter of the horizon.
func (res *SplitResult) sizeTraces(at, horizon float64) {
	for s := range res.Traces {
		tr := &res.Traces[s]
		n := len(tr.Times)
		est := float64(n) * horizon / at // at < horizon, so est >= n
		more := int(est+4*math.Sqrt(est*horizon/at)) + 1 - n
		tr.Times = slices.Grow(tr.Times, more)
		tr.Blocks = slices.Grow(tr.Blocks, more)
	}
}

// localHot maps a farm hot block onto a shard-local hot block (stable per
// (shard, block); many farm blocks can alias one local block, which only
// redistributes uniform mass within the class).
func (cfg *SplitConfig) localHot(shard, key int) layout.BlockID {
	return layout.BlockID(mix64(hotKey(key)^shardSalt(shard)) % uint64(cfg.LocalHot))
}

// localCold maps a farm cold block onto a shard-local cold block; local
// cold block IDs start after the local hot range, as in package layout.
func (cfg *SplitConfig) localCold(shard, key int) layout.BlockID {
	return layout.BlockID(uint64(cfg.LocalHot) + mix64(coldKey(key)^shardSalt(shard))%uint64(cfg.LocalCold))
}

// validate reports the first configuration error.
func (cfg *SplitConfig) validate() error {
	if cfg.Shards < 1 {
		return fmt.Errorf("farm: split needs at least one shard, got %d", cfg.Shards)
	}
	if cfg.Horizon <= 0 {
		return fmt.Errorf("farm: split horizon %v must be positive", cfg.Horizon)
	}
	if len(cfg.Tenants) == 0 {
		return fmt.Errorf("farm: split needs at least one tenant")
	}
	for i, t := range cfg.Tenants {
		if t.Arrivals == nil || t.Arrivals.Closed() {
			return fmt.Errorf("farm: tenant %d needs an open arrival process", i)
		}
		if t.HotFrac < 0 || t.HotFrac > 1 {
			return fmt.Errorf("farm: tenant %d hot fraction %v out of [0,1]", i, t.HotFrac)
		}
	}
	if cfg.FarmHot < 0 || cfg.FarmCold < 0 || cfg.FarmHot+cfg.FarmCold == 0 {
		return fmt.Errorf("farm: bad farm universe (%d hot, %d cold)", cfg.FarmHot, cfg.FarmCold)
	}
	if cfg.FarmHot > 0 && cfg.LocalHot < 1 {
		return fmt.Errorf("farm: shards store no hot blocks but the farm universe has %d", cfg.FarmHot)
	}
	if cfg.FarmCold > 0 && cfg.LocalCold < 1 {
		return fmt.Errorf("farm: shards store no cold blocks but the farm universe has %d", cfg.FarmCold)
	}
	if cfg.LocalHot > math.MaxInt32-cfg.LocalCold {
		return fmt.Errorf("farm: %d local blocks exceed the routing table's 32-bit block numbers", cfg.LocalHot+cfg.LocalCold)
	}
	switch cfg.Policy {
	case "", PlaceLocal, PlaceMirror:
	case PlaceSpread:
		if cfg.Copies < 0 || cfg.Copies+1 > cfg.Shards {
			return fmt.Errorf("farm: spread placement cannot put %d copies on %d libraries", cfg.Copies+1, cfg.Shards)
		}
	default:
		return fmt.Errorf("farm: unknown placement policy %q", cfg.Policy)
	}
	if cfg.HotDeadAt != nil && len(cfg.HotDeadAt) != cfg.Shards {
		return fmt.Errorf("farm: HotDeadAt has %d shards, want %d", len(cfg.HotDeadAt), cfg.Shards)
	}
	return nil
}
