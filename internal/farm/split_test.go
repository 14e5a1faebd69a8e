package farm

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/workload"
)

// splitCfg builds a small three-tenant split over four shards.
func splitCfg(t *testing.T, policy Policy, copies int) SplitConfig {
	t.Helper()
	mk := func(mean float64, seed int64) workload.Arrivals {
		a, err := workload.NewPoissonArrivals(mean, seed)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	return SplitConfig{
		Shards:    4,
		Policy:    policy,
		Copies:    copies,
		FarmHot:   160,
		FarmCold:  1440,
		LocalHot:  40,
		LocalCold: 360,
		Horizon:   50_000,
		Tenants: []Tenant{
			{Arrivals: mk(120, 11), HotFrac: 0.8},
			{Arrivals: mk(300, 12), HotFrac: 0.4},
			{Arrivals: mk(600, 13), HotFrac: 0.1},
		},
		Seed: 7,
	}
}

func TestSplitDeterministicAndConserving(t *testing.T) {
	for _, pol := range []Policy{PlaceLocal, PlaceSpread, PlaceMirror} {
		a, err := Split(splitCfg(t, pol, 2))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		b, err := Split(splitCfg(t, pol, 2))
		if err != nil {
			t.Fatalf("%v: %v", pol, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: split is not deterministic", pol)
		}
		var sum int64
		for s, tr := range a.Traces {
			if len(tr.Times) != len(tr.Blocks) {
				t.Fatalf("%v shard %d: %d times vs %d blocks", pol, s, len(tr.Times), len(tr.Blocks))
			}
			if int64(len(tr.Times)) != a.Routed[s] {
				t.Errorf("%v shard %d: routed %d != trace length %d", pol, s, a.Routed[s], len(tr.Times))
			}
			last := 0.0
			for _, at := range tr.Times {
				if at < last || at >= 50_000 {
					t.Fatalf("%v shard %d: arrival %v out of order or past horizon", pol, s, at)
				}
				last = at
			}
			for _, b := range tr.Blocks {
				if b < 0 || int(b) >= 400 {
					t.Fatalf("%v shard %d: local block %d out of range", pol, s, b)
				}
			}
			sum += a.Routed[s]
		}
		if sum != a.Total || a.Total == 0 {
			t.Errorf("%v: routed sum %d != total %d (or empty)", pol, sum, a.Total)
		}
	}
}

// TestSplitKeyStreamInvariant pins that the placement policy changes only
// *where* requests go, not the workload itself: total request count and
// the multiset of arrival times match across policies.
func TestSplitKeyStreamInvariant(t *testing.T) {
	local, err := Split(splitCfg(t, PlaceLocal, 0))
	if err != nil {
		t.Fatal(err)
	}
	spread, err := Split(splitCfg(t, PlaceSpread, 2))
	if err != nil {
		t.Fatal(err)
	}
	if local.Total != spread.Total {
		t.Fatalf("policy changed the workload: %d vs %d requests", local.Total, spread.Total)
	}
	sumTimes := func(r *SplitResult) float64 {
		var s float64
		for _, tr := range r.Traces {
			for _, at := range tr.Times {
				s += at
			}
		}
		return s
	}
	if math.Abs(sumTimes(local)-sumTimes(spread)) > 1e-6 {
		t.Error("policy perturbed the arrival time stream")
	}
}

// TestSplitFailover kills every hot copy on shard-of-first-preference for
// all blocks at time zero on one shard and checks requests fail over off
// it under spread placement, while local placement keeps routing to it
// (no cross-library copies to fail over to).
func TestSplitFailover(t *testing.T) {
	cfg := splitCfg(t, PlaceSpread, 2)
	dead := make([][]float64, cfg.Shards)
	alive := make([]float64, cfg.LocalHot)
	gone := make([]float64, cfg.LocalHot)
	for i := range alive {
		alive[i] = math.Inf(1)
	}
	// gone[i] == 0: every copy on shard 2 is dead from the start.
	for s := range dead {
		if s == 2 {
			dead[s] = gone
		} else {
			dead[s] = alive
		}
	}
	cfg.HotDeadAt = dead
	res, err := Split(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedOver == 0 {
		t.Error("spread placement with a dead shard should fail over")
	}
	// Shard 2 must still receive its cold share but no hot requests.
	for i, b := range res.Traces[2].Blocks {
		if int(b) < cfg.LocalHot {
			t.Fatalf("request %d: hot block %d routed to a shard with no live hot copies", i, b)
		}
	}

	// The same fault projection under local placement keeps hot load on
	// shard 2: per-library replication has nowhere to fail over.
	lc := splitCfg(t, PlaceLocal, 0)
	lc.HotDeadAt = dead
	lres, err := Split(lc)
	if err != nil {
		t.Fatal(err)
	}
	if lres.FailedOver != 0 {
		t.Error("local placement cannot fail over but counted failovers")
	}
	hotOn2 := false
	for _, b := range lres.Traces[2].Blocks {
		if int(b) < lc.LocalHot {
			hotOn2 = true
			break
		}
	}
	if !hotOn2 {
		t.Error("local placement should keep routing hot requests to the dead shard")
	}
}

func TestSplitValidation(t *testing.T) {
	bad := func(name string, mut func(*SplitConfig)) {
		cfg := splitCfg(t, PlaceSpread, 1)
		mut(&cfg)
		if _, err := Split(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	bad("zero shards", func(c *SplitConfig) { c.Shards = 0 })
	bad("no tenants", func(c *SplitConfig) { c.Tenants = nil })
	bad("closed tenant", func(c *SplitConfig) {
		c.Tenants[0].Arrivals = workload.ClosedArrivals{QueueLength: 5}
	})
	bad("hot frac out of range", func(c *SplitConfig) { c.Tenants[0].HotFrac = 1.5 })
	bad("empty universe", func(c *SplitConfig) { c.FarmHot, c.FarmCold = 0, 0 })
	bad("more copies than shards", func(c *SplitConfig) { c.Copies = 4 })
	bad("no local hot storage", func(c *SplitConfig) { c.LocalHot = 0 })
	bad("zero horizon", func(c *SplitConfig) { c.Horizon = 0 })
	bad("short dead table", func(c *SplitConfig) { c.HotDeadAt = make([][]float64, 2) })
	bad("local blocks past 32 bits", func(c *SplitConfig) { c.LocalCold = math.MaxInt32 })
}

// splitByHashing is Split as it routed before the routing tables: every
// arrival re-derives its route from the rendezvous scores, the block
// hashes and the dead-time table. It is the reference the tables are held
// to, bit for bit.
func splitByHashing(cfg SplitConfig) (*SplitResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r, err := NewRouter(cfg.Shards)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := &SplitResult{
		Traces: make([]Trace, cfg.Shards),
		Routed: make([]int64, cfg.Shards),
	}
	next := make([]float64, len(cfg.Tenants))
	for i, t := range cfg.Tenants {
		next[i] = t.Arrivals.Next()
	}
	var prefBuf []int
	mirrorAll := make([]int, cfg.Shards)
	for s := range mirrorAll {
		mirrorAll[s] = s
	}
	alive := func(s, key int, t float64) bool {
		if cfg.HotDeadAt == nil || cfg.HotDeadAt[s] == nil {
			return true
		}
		return cfg.HotDeadAt[s][cfg.localHot(s, key)] > t
	}
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

		classDraw := rng.Float64()
		hot := classDraw < cfg.Tenants[ten].HotFrac
		if cfg.FarmCold == 0 {
			hot = true
		} else if cfg.FarmHot == 0 {
			hot = false
		}
		var key, shard int
		var local layout.BlockID
		if hot {
			key = rng.Intn(cfg.FarmHot)
			hk := hotKey(key)
			var cands []int
			switch cfg.Policy {
			case PlaceSpread:
				prefBuf = r.Prefer(hk, cfg.Copies+1, prefBuf)
				cands = prefBuf
			case PlaceMirror:
				cands = mirrorAll
			default: // PlaceLocal
				prefBuf = r.Prefer(hk, 1, prefBuf)
				cands = prefBuf
			}
			start := Rotate(hk, seq, len(cands))
			shard = -1
			for j := 0; j < len(cands); j++ {
				s := cands[(start+j)%len(cands)]
				if alive(s, key, at) {
					if j > 0 {
						res.FailedOver++
					}
					shard = s
					break
				}
			}
			if shard < 0 {
				shard = cands[start]
			}
			local = cfg.localHot(shard, key)
		} else {
			key = rng.Intn(cfg.FarmCold)
			shard = r.Owner(coldKey(key))
			local = cfg.localCold(shard, key)
		}
		tr := &res.Traces[shard]
		tr.Times = append(tr.Times, at)
		tr.Blocks = append(tr.Blocks, local)
		res.Routed[shard]++
		res.Total++
		seq++
	}
	return res, nil
}

// hashCase derives a split configuration from seed for the given policy,
// shard and copy counts: universe and local sizes, two tenants whose
// streams last about `keysPer` arrivals per farm key (well under one, so
// most keys arrive once, or several, so keys repeat), and, when dead is
// set, a dead-time projection in which some shards have none, some blocks
// never die and the rest die inside the horizon, so requests fail over.
// Each call builds fresh arrival processes.
func hashCase(t *testing.T, seed int64, pol Policy, shards, copies int, dead bool, keysPer float64) SplitConfig {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := SplitConfig{
		Shards:    shards,
		Policy:    pol,
		Copies:    copies,
		FarmHot:   1 + rng.Intn(120),
		FarmCold:  1 + rng.Intn(600),
		LocalHot:  1 + rng.Intn(60),
		LocalCold: 1 + rng.Intn(300),
		Horizon:   10_000,
		Seed:      rng.Int63(),
	}
	switch rng.Intn(8) { // now and then a single class
	case 0:
		cfg.FarmCold = 0
	case 1:
		cfg.FarmHot = 0
	}
	arrivals := keysPer * float64(cfg.FarmHot+cfg.FarmCold)
	mean := 2 * cfg.Horizon / math.Max(arrivals, 1) // two tenants share the stream
	for i := 0; i < 2; i++ {
		a, err := workload.NewPoissonArrivals(mean, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Tenants = append(cfg.Tenants, Tenant{Arrivals: a, HotFrac: rng.Float64()})
	}
	if dead {
		cfg.HotDeadAt = make([][]float64, shards)
		for s := range cfg.HotDeadAt {
			if rng.Intn(4) == 0 {
				continue // no projection for this shard
			}
			row := make([]float64, cfg.LocalHot)
			for b := range row {
				row[b] = math.Inf(1)
				if rng.Intn(3) > 0 {
					row[b] = rng.Float64() * cfg.Horizon
				}
			}
			cfg.HotDeadAt[s] = row
		}
	}
	return cfg
}

// checkAgainstHashing splits the case twice, through the routing tables
// and by hashing every arrival, and reports the first difference in the
// traces, the per-shard counts, the failover count or the total.
func checkAgainstHashing(t *testing.T, seed int64, pol Policy, shards, copies int, dead bool, keysPer float64) *SplitResult {
	t.Helper()
	got, err := Split(hashCase(t, seed, pol, shards, copies, dead, keysPer))
	if err != nil {
		t.Fatalf("seed %d %v shards %d copies %d: %v", seed, pol, shards, copies, err)
	}
	want, err := splitByHashing(hashCase(t, seed, pol, shards, copies, dead, keysPer))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Traces, want.Traces) || !reflect.DeepEqual(got.Routed, want.Routed) ||
		got.FailedOver != want.FailedOver || got.Total != want.Total {
		t.Fatalf("seed %d %v shards %d copies %d dead %v keysPer %v: tables route %d requests (%d failed over, per shard %v), hashing %d (%d, %v)",
			seed, pol, shards, copies, dead, keysPer, got.Total, got.FailedOver, got.Routed, want.Total, want.FailedOver, want.Routed)
	}
	return got
}

// TestSplitTablesMatchHashing holds the routing tables to per-arrival
// hashing over every policy, 1 to 8 shards with every legal copy count,
// with and without a dead-time projection, on streams short enough that
// most keys arrive once and long enough that keys repeat.
func TestSplitTablesMatchHashing(t *testing.T) {
	var failedOver int64
	seed := int64(1)
	for shards := 1; shards <= 8; shards++ {
		for copies := 0; copies < shards; copies++ {
			for _, pol := range []Policy{PlaceLocal, PlaceSpread, PlaceMirror} {
				if pol != PlaceSpread && copies > 0 {
					continue // only spread places cross-library copies
				}
				for _, dead := range []bool{false, true} {
					for _, keysPer := range []float64{0.3, 6} {
						seed++
						failedOver += checkAgainstHashing(t, seed, pol, shards, copies, dead, keysPer).FailedOver
					}
				}
			}
		}
	}
	if failedOver == 0 {
		t.Error("no request failed over: the cases never exercise the dead test")
	}
}

// FuzzSplitMatchesHashing is TestSplitTablesMatchHashing over fuzzed
// seeds, policies, shard and copy counts and stream lengths.
func FuzzSplitMatchesHashing(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(1), uint8(1), true, uint8(2))
	f.Add(int64(9), uint8(7), uint8(0), uint8(2), true, uint8(40))
	f.Add(int64(4), uint8(0), uint8(0), uint8(0), false, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, shards, copies, pol uint8, dead bool, keysPer uint8) {
		n := 1 + int(shards)%8
		p := Policy(pol % 3)
		c := 0
		if p == PlaceSpread {
			c = int(copies) % n
		}
		checkAgainstHashing(t, seed, p, n, c, dead, 0.1+float64(keysPer%64)/8)
	})
}
