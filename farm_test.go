package tapejuke

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"tapejuke/internal/farm"
	"tapejuke/internal/layout"
)

// farmBase returns a small open-model library config exercising faults
// and replication, defaulted like RunFarm will see it.
func farmBase() Config {
	return Config{
		Tapes:               6,
		Replicas:            1,
		HotPercent:          10,
		ReadHotPercent:      60,
		DataMB:              19200, // 1200 blocks: partial fill so mirror placement can fit
		Algorithm:           EnvelopeMaxBandwidth,
		QueueLength:         0,
		MeanInterarrivalSec: 300,
		HorizonSec:          200_000,
		Faults:              FaultConfig{TapeMTBFSec: 400_000, BadBlocksPerTape: 0.5},
		Seed:                3,
	}.WithDefaults()
}

// farmRepairBase is farmBase with bad-block, tape and latent faults,
// repair, and a health scrub that evacuates suspect tapes, so every shard
// rebuilds and moves copies in its layout.
func farmRepairBase() Config {
	c := farmBase()
	c.DataMB = 4_800
	c.Faults = FaultConfig{BadBlocksPerTape: 1, TapeMTBFSec: 1_500_000,
		LatentErrorsPerTape: 2, LatentMeanOnsetSec: 100_000}
	c.Repair = RepairConfig{Enable: true}
	c.Health = HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 2, Evacuate: true}
	return c
}

// shardEventCollector returns a ShardObserver recording every shard's
// event stream into evs (one slice per shard; shards run concurrently
// but each appends only to its own slice).
func shardEventCollector(n int) (func(int) Observer, [][]Event) {
	evs := make([][]Event, n)
	return func(shard int) Observer {
		return ObserverFunc(func(e Event) {
			evs[shard] = append(evs[shard], e)
		})
	}, evs
}

// TestFarmOneShardInert pins the farm layer's inertness at N=1: the event
// stream and the Result must be identical to a plain Runner.Run of the
// same configuration, for every placement policy.
func TestFarmOneShardInert(t *testing.T) {
	ref := farmBase()
	var refEvents []Event
	ref.Observer = ObserverFunc(func(e Event) { refEvents = append(refEvents, e) })
	want, err := NewRunner().Run(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []FarmPlacement{FarmLocal, FarmSpread, FarmMirror, ""} {
		obs, evs := shardEventCollector(1)
		fr, err := RunFarm(FarmConfig{
			Shards:        1,
			Placement:     pol,
			Base:          farmBase(),
			ShardObserver: obs,
		})
		if err != nil {
			t.Fatalf("placement %q: %v", pol, err)
		}
		if !reflect.DeepEqual(fr.Shards[0], want) {
			t.Errorf("placement %q: 1-shard farm Result differs from Runner.Run", pol)
		}
		if len(evs[0]) != len(refEvents) {
			t.Fatalf("placement %q: %d events vs %d from plain run", pol, len(evs[0]), len(refEvents))
		}
		for i := range evs[0] {
			if evs[0][i] != refEvents[i] {
				t.Fatalf("placement %q: event %d differs: %+v vs %+v", pol, i, evs[0][i], refEvents[i])
			}
		}
		if fr.TotalArrivals != want.TotalArrivals || fr.ThroughputKBps != want.ThroughputKBps {
			t.Errorf("placement %q: aggregate rollup differs from the single shard", pol)
		}
	}
}

// TestFarmDeterministicAcrossWorkers pins the headline determinism claim:
// per-shard event streams and the merged result are byte-identical at
// worker counts 1, 4, and GOMAXPROCS. The first farm's shards all run on
// the one layout the pre-pass built, read concurrently; the second
// repairs and evacuates, so each of its shards builds and mutates a
// private layout instead.
func TestFarmDeterministicAcrossWorkers(t *testing.T) {
	for _, base := range []Config{farmBase(), farmRepairBase()} {
		run := func(workers int) (*FarmResult, [][]Event) {
			obs, evs := shardEventCollector(4)
			fr, err := RunFarm(FarmConfig{
				Shards:        4,
				Placement:     FarmSpread,
				Workers:       workers,
				Base:          base,
				ShardObserver: obs,
			})
			if err != nil {
				t.Fatal(err)
			}
			return fr, evs
		}
		name := "shared layout"
		refRes, refEvs := run(1)
		if base.Repair.Enabled() {
			name = "repairing"
			var evacuated int64
			for _, r := range refRes.Shards {
				evacuated += r.EvacuatedCopies
			}
			if evacuated == 0 {
				t.Fatalf("%s: no copy was evacuated, so no shard mutated its layout", name)
			}
		}
		for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
			res, evs := run(w)
			// The observer funcs differ by identity; compare everything else.
			if !reflect.DeepEqual(res, refRes) {
				t.Errorf("%s, workers=%d: merged FarmResult differs from workers=1", name, w)
			}
			for s := range evs {
				if len(evs[s]) != len(refEvs[s]) {
					t.Fatalf("%s, workers=%d shard %d: %d events vs %d", name, w, s, len(evs[s]), len(refEvs[s]))
				}
				for i := range evs[s] {
					if evs[s][i] != refEvs[s][i] {
						t.Fatalf("%s, workers=%d shard %d: event %d differs", name, w, s, i)
					}
				}
			}
		}
	}
}

// TestFarmShardsRunPlannedLayout pins that a farm's shards run on the
// layout its pre-pass planned, under every placement: each shard of a farm
// without repair runs on the very layout splitFarm returned, so the death
// projection read the geometry the shards simulate, and each shard of a
// repairing farm runs on a private one.
func TestFarmShardsRunPlannedLayout(t *testing.T) {
	for _, base := range []Config{farmBase(), farmRepairBase()} {
		for _, pl := range []FarmPlacement{FarmLocal, FarmSpread, FarmMirror} {
			fc := FarmConfig{Shards: 3, Placement: pl, Base: base}
			pol, err := validateFarm(fc, base)
			if err != nil {
				t.Fatal(err)
			}
			shardCfg, lay, split, err := splitFarm(fc, base, pol)
			if err != nil {
				t.Fatalf("%s: %v", pl, err)
			}
			for i := 0; i < fc.Shards; i++ {
				c := shardCfg
				c.Seed = shardSeed(base.Seed, i)
				rn := NewRunner()
				if _, err := rn.runShard(c, split.Traces, lay, i, base.Seed); err != nil {
					t.Fatalf("%s shard %d: %v", pl, i, err)
				}
				repair := base.Repair.Enabled()
				if shared := rn.sess.Layout() == lay; shared == repair {
					t.Errorf("%s shard %d (repair %v): ran on the planned layout = %v, want %v",
						pl, i, repair, shared, !repair)
				}
			}
		}
	}
}

// TestFarmSplitSizesTracesOnce pins the split's one-time trace sizing on
// the benchmark's farm (four spread libraries, NR 1, two tenants, tape
// failures; perfbench's farm-spread-failover) over 100 seeds spaced as the
// benchmark spaces them: seed bases 1 to 25, four seeds each. Every shard
// trace is sized once, when the merge first reaches a quarter of the
// horizon, to the count so far projected over the horizon plus four
// standard deviations of that projection; the test restates that rule,
// replays the trace's appends and the one Grow, and requires the final
// capacity to be exactly the sized one: no trace regrew.
func TestFarmSplitSizesTracesOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("splits 100 benchmark-sized farm streams")
	}
	sized := func(n, more int) int {
		var s []layout.BlockID
		for i := 0; i < n; i++ {
			s = append(s, 0)
		}
		return cap(slices.Grow(s, more))
	}
	traces := 0
	for base := int64(1); base <= 25; base++ {
		for k := int64(0); k < 4; k++ {
			fc := FarmConfig{
				Shards:    4,
				Placement: FarmSpread,
				Tenants: []TenantClass{
					{Name: "interactive", MeanInterarrivalSec: 70, ReadHotPercent: 80},
					{Name: "batch", MeanInterarrivalSec: 250, ReadHotPercent: 10},
				},
				Base: Config{
					Algorithm:           EnvelopeMaxBandwidth,
					Replicas:            1,
					HotPercent:          10,
					ReadHotPercent:      60,
					MeanInterarrivalSec: 55,
					Faults:              FaultConfig{TapeMTBFSec: 75_000_000},
					HorizonSec:          5_000_000,
					Seed:                1 + base*7_919_000 + k*1_000_003,
				}.WithDefaults(),
			}
			_, _, split, err := splitFarm(fc, fc.Base, farm.PlaceSpread)
			if err != nil {
				t.Fatal(err)
			}
			// The merge sizes the traces at its first arrival at or past
			// a quarter of the horizon.
			horizon := fc.Base.HorizonSec
			at := math.Inf(1)
			for _, tr := range split.Traces {
				if i := sort.SearchFloat64s(tr.Times, horizon/4); i < len(tr.Times) {
					at = min(at, tr.Times[i])
				}
			}
			for s, tr := range split.Traces {
				n := sort.SearchFloat64s(tr.Times, at)
				est := float64(n) * horizon / at
				more := int(est+4*math.Sqrt(est*horizon/at)) + 1 - n
				want := sized(n, more)
				if cap(tr.Times) != want || cap(tr.Blocks) != want {
					t.Errorf("seed %d shard %d: sized at %d arrivals to capacity %d, the trace ends with %d arrivals and capacity %d/%d",
						fc.Base.Seed, s, n, want, len(tr.Times), cap(tr.Times), cap(tr.Blocks))
				}
				traces++
			}
		}
	}
	if traces != 400 {
		t.Fatalf("checked %d traces, want 400", traces)
	}
}

// TestFarmConservation checks the aggregate ledger: every minted arrival
// is completed, expired, shed, abandoned unserviceable, or still
// outstanding; and the router's trace covers at least the minted count
// (arrivals routed but still behind an op in flight at the horizon are
// never minted by the shard engine).
func TestFarmConservation(t *testing.T) {
	for _, pol := range []FarmPlacement{FarmLocal, FarmSpread, FarmMirror} {
		fr, err := RunFarm(FarmConfig{Shards: 3, Placement: pol, Base: farmBase()})
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if fr.TotalArrivals == 0 {
			t.Fatalf("%s: empty farm run", pol)
		}
		sum := fr.TotalCompleted + fr.Expired + fr.Shed + fr.Unserviceable + fr.Outstanding
		if sum != fr.TotalArrivals {
			t.Errorf("%s: conservation violated: %d arrivals vs %d accounted", pol, fr.TotalArrivals, sum)
		}
		if fr.Outstanding < 0 {
			t.Errorf("%s: negative outstanding %d", pol, fr.Outstanding)
		}
		var routed, minted int64
		for s, r := range fr.Shards {
			routed += fr.Routed[s]
			minted += r.TotalArrivals
			if r.TotalArrivals > fr.Routed[s] {
				t.Errorf("%s shard %d: minted %d > routed %d", pol, s, r.TotalArrivals, fr.Routed[s])
			}
		}
		if minted != fr.TotalArrivals {
			t.Errorf("%s: shard mint sum %d != aggregate %d", pol, minted, fr.TotalArrivals)
		}
		if fr.RequestImbalance < 1 || fr.QueueImbalance < 1 {
			t.Errorf("%s: impossible imbalance (req %v, queue %v)", pol, fr.RequestImbalance, fr.QueueImbalance)
		}
	}
}

// TestFarmValidation exercises the farm-specific rejections.
func TestFarmValidation(t *testing.T) {
	reject := func(name, wantSub string, fc FarmConfig) {
		t.Helper()
		if _, err := RunFarm(fc); err == nil || !strings.Contains(err.Error(), wantSub) {
			t.Errorf("%s: got %v, want error containing %q", name, err, wantSub)
		}
	}
	closed := farmBase()
	closed.QueueLength, closed.MeanInterarrivalSec = 60, 0
	reject("closed model", "open-model", FarmConfig{Shards: 2, Base: closed})

	writes := farmBase()
	writes.Writes.MeanInterarrivalSec = 500
	reject("writes", "write extension", FarmConfig{Shards: 2, Base: writes})

	zipf := farmBase()
	zipf.ZipfS = 1.2
	reject("zipf", "two-class", FarmConfig{Shards: 2, Base: zipf})

	obs := farmBase()
	obs.Observer = ObserverFunc(func(Event) {})
	reject("shared observer", "ShardObserver", FarmConfig{Shards: 2, Base: obs})

	reject("zero shards", "at least one shard", FarmConfig{Shards: 0, Base: farmBase()})
	reject("bad placement", "unknown farm placement", FarmConfig{Shards: 2, Placement: "ring", Base: farmBase()})

	thin := farmBase()
	thin.Replicas = 3
	reject("spread needs shards", "spread placement", FarmConfig{Shards: 2, Placement: FarmSpread, Base: thin})

	tenant := FarmConfig{Shards: 2, Base: farmBase(),
		Tenants: []TenantClass{{Name: "bad", MeanInterarrivalSec: 0}}}
	reject("tenant rate", "positive mean", tenant)

	full := farmBase()
	full.DataMB = 0 // filled to capacity: no room to mirror the hot set N times
	reject("mirror overflow", "does not fit", FarmConfig{Shards: 3, Placement: FarmMirror, Base: full})
}

// TestFarmTenantsAggregate checks multi-tenant aggregation: two classes
// at mean gaps m produce roughly the summed rate, and tenant skew shifts
// hot traffic.
func TestFarmTenantsAggregate(t *testing.T) {
	base := farmBase()
	fr, err := RunFarm(FarmConfig{
		Shards: 2,
		Base:   base,
		Tenants: []TenantClass{
			{Name: "interactive", MeanInterarrivalSec: 400, ReadHotPercent: 90},
			{Name: "batch", MeanInterarrivalSec: 400, ReadHotPercent: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two tenants at mean 400 over 200k s ≈ 1000 arrivals total; allow
	// generous Poisson slack.
	if fr.TotalArrivals < 700 || fr.TotalArrivals > 1300 {
		t.Errorf("aggregated arrivals = %d, want ≈1000", fr.TotalArrivals)
	}
}
