package tapejuke

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"tapejuke/internal/sim"
	"tapejuke/internal/trace"
)

// The digest pin runs every configuration of a matrix that covers each
// extension alone and in combination, and compares an FNV-64a digest of
// its whole event stream (every field of every event) and of every Result
// field (floats by their bits) against testdata/digests.txt. A refactor
// that keeps the digests keeps the simulator's behaviour bit for bit.
// After an intended behaviour change, regenerate the file with
//
//	TAPEJUKE_WRITE_DIGESTS=1 go test -run TestDigestPin .
const digestFile = "testdata/digests.txt"

// matrixCase is one configuration of the pinned matrix: a single library
// (cfg) or a farm (farm, with cfg unused).
type matrixCase struct {
	name string
	cfg  Config
	farm *FarmConfig
}

// digestMatrix lists the pinned configurations. Horizons are short so the
// whole matrix runs in a few seconds.
func digestMatrix() []matrixCase {
	var cs []matrixCase
	add := func(name string, c Config) {
		cs = append(cs, matrixCase{name: name, cfg: c.WithDefaults()})
	}
	closed := func(alg Algorithm) Config {
		return Config{Algorithm: alg, QueueLength: 40, HorizonSec: 300_000, Seed: 11}
	}
	for _, alg := range Algorithms() {
		add("closed/nr0/"+string(alg), closed(alg))
		c := closed(alg)
		c.Replicas, c.Placement = 4, Vertical
		add("closed/nr4-vertical/"+string(alg), c)
	}

	open := func(ia float64) Config {
		return Config{Algorithm: EnvelopeMaxBandwidth, Replicas: 1, QueueLength: 0,
			MeanInterarrivalSec: ia, HorizonSec: 400_000, Seed: 12}
	}
	add("open", open(200))
	c := closed(EnvelopeMaxBandwidth)
	c.ZipfS = 1.3
	add("zipf", c)
	c = closed(DynamicMaxBandwidth)
	c.SequentialProb = 0.6
	add("sequential", c)
	c = closed(EnvelopeMaxBandwidth)
	c.DriveProfile, c.RAO, c.Replicas = "lto9", true, 2
	add("lto9-rao", c)
	c = closed(EnvelopeMaxBandwidth)
	c.DataMB, c.PackAfterData, c.Replicas = 30_000, true, 2
	add("partial-fill-packed", c)
	c = closed(StaticMaxBandwidth)
	c.MaxCompletions = 1_500
	add("max-completions", c)

	for _, p := range []WritePolicy{WritePiggyback, WriteIdleOnly, WritePiggybackAndIdle} {
		c = open(150)
		c.Writes = WriteConfig{MeanInterarrivalSec: 400, Policy: p, FlushThreshold: 40}
		add("writes/"+string(p), c)
	}
	c = open(80)
	c.Drives = 2
	c.Writes = WriteConfig{MeanInterarrivalSec: 200, Policy: WritePiggybackAndIdle, FlushThreshold: 40}
	add("writes/2-drive", c)

	c = open(90)
	c.Deadlines = DeadlineConfig{HotTTL: 5_000, ColdTTL: 20_000}
	add("overload/deadlines", c)
	c = open(60)
	c.Admission = AdmissionConfig{MaxQueue: 30, Policy: AdmitReject}
	add("overload/reject", c)
	c = open(60)
	c.Admission = AdmissionConfig{MaxQueue: 30, Policy: AdmitShed}
	add("overload/shed", c)
	c = open(60)
	c.Deadlines = DeadlineConfig{HotTTL: 10_000, ColdTTL: 40_000}
	c.Degrade = DegradeConfig{QueueThreshold: 20, MaxSweep: 5}
	add("overload/degrade-maxsweep", c)
	c = open(70)
	c.Writes = WriteConfig{MeanInterarrivalSec: 300, Policy: WritePiggybackAndIdle, FlushThreshold: 60}
	c.Degrade = DegradeConfig{QueueThreshold: 20, DeferWrites: true}
	add("overload/degrade-deferwrites", c)
	c = closed(DynamicMaxBandwidth)
	c.AgeWeight = 0.002
	add("overload/ageweight", c)
	// Multi-drive aging: near-deadline requests often sit on a tape another
	// drive holds, so these runs exercise the selection fallback.
	for _, a := range []struct {
		drives int
		alg    Algorithm
	}{{2, StaticMaxBandwidth}, {3, DynamicMaxBandwidth}, {2, EnvelopeMaxBandwidth}} {
		c = open(60)
		c.Algorithm, c.Drives, c.AgeWeight = a.alg, a.drives, 1
		c.Deadlines = DeadlineConfig{HotTTL: 5_000, ColdTTL: 20_000}
		add(fmt.Sprintf("overload/ageweight/%d-drive/%s", a.drives, a.alg), c)
	}
	c = closed(EnvelopeMaxBandwidth)
	c.Burst = BurstConfig{Factor: 1, FlashAt: 100_000, FlashCount: 60}
	add("overload/flash-closed", c)
	c = open(200)
	c.Burst = BurstConfig{Factor: 4, OnFrac: 0.2, Period: 20_000, FlashAt: 150_000, FlashLen: 10_000}
	add("overload/flash-open", c)

	// small is a short, partially filled, fully hot library: faults,
	// repair and health act on it within a short horizon.
	small := func(drives int) Config {
		return Config{Algorithm: EnvelopeMaxBandwidth, Drives: drives, Replicas: 2,
			HotPercent: 100, ReadHotPercent: 100, DataMB: 16_000,
			MeanInterarrivalSec: 150, HorizonSec: 500_000, Seed: 13}
	}
	faultClasses := []struct {
		name string
		f    FaultConfig
	}{
		{"transient", FaultConfig{ReadTransientProb: 0.05}},
		{"bad-blocks", FaultConfig{BadBlocksPerTape: 2, BadBlockRangeLen: 4}},
		{"tape-mtbf", FaultConfig{TapeMTBFSec: 1_000_000}},
		{"drive-mtbf", FaultConfig{DriveMTBFSec: 100_000, DriveRepairSec: 3_600}},
		{"switch", FaultConfig{SwitchFailProb: 0.05}},
		{"latent", FaultConfig{LatentErrorsPerTape: 2, LatentMeanOnsetSec: 100_000}},
	}
	for _, d := range []int{1, 2} {
		for _, fc := range faultClasses {
			c = small(d)
			c.Faults = fc.f
			add(fmt.Sprintf("faults/%s/%d-drive", fc.name, d), c)
		}
	}
	for _, d := range []int{1, 2, 3} {
		c = small(d)
		c.Replicas = 1
		c.Faults = FaultConfig{TapeMTBFSec: 1_000_000, BadBlocksPerTape: 1}
		c.Repair = RepairConfig{Enable: true, HalfLifeSec: 50_000, PromoteHeat: 2,
			ReclaimHeat: 0.5, MaxCopies: 3}
		add(fmt.Sprintf("repair/promote-reclaim/%d-drive", d), c)
	}
	for _, d := range []int{1, 2} {
		c = small(d)
		c.Faults = FaultConfig{TapeMTBFSec: 1_500_000, LatentErrorsPerTape: 2,
			LatentMeanOnsetSec: 100_000}
		c.Repair = RepairConfig{Enable: true}
		c.Health = HealthConfig{Enable: true, ScrubRate: 64}
		add(fmt.Sprintf("health/scrub/%d-drive", d), c)

		c = small(d)
		c.DataMB, c.MeanInterarrivalSec = 4_800, 300
		c.Faults = FaultConfig{ReadTransientProb: 0.01, BadBlocksPerTape: 1,
			TapeMTBFSec: 1_500_000, LatentErrorsPerTape: 2, LatentMeanOnsetSec: 100_000}
		c.Repair = RepairConfig{Enable: true}
		c.Health = HealthConfig{Enable: true, ScrubRate: 64, SuspectScore: 2, Evacuate: true}
		add(fmt.Sprintf("health/evacuate/%d-drive", d), c)

		c = small(d)
		c.Replicas = 1
		c.MeanInterarrivalSec = 300
		c.Faults = FaultConfig{ReadTransientProb: 0.05}
		c.Health = HealthConfig{Enable: true, ErrHalfLifeSec: 1e12, DriveFenceScore: 20,
			MaintenanceSec: 7_200}
		add(fmt.Sprintf("health/fence/%d-drive", d), c)
	}

	for _, p := range []FarmPlacement{FarmLocal, FarmSpread, FarmMirror} {
		cs = append(cs, matrixCase{name: "farm/" + string(p), farm: &FarmConfig{
			Shards:    3,
			Placement: p,
			Workers:   2,
			Base:      farmBase(),
		}})
	}
	return cs
}

// matrixRun is the outcome of one matrix configuration.
type matrixRun struct {
	name    string
	events  uint64 // digest of the event stream
	nEvents int64
	result  uint64         // digest of the Result (FarmResult for farms)
	cfg     Config         // zero for farms
	res     *Result        // nil for farms
	sum     *trace.Summary // trace summary of the event stream; nil for farms
	// tally is the stream tallied in issue order under the run's warm-up
	// (see issueTally); zero for farms.
	tally sim.Tally
	// replay is trace.Verify's verdict on the stream (see replayTrace);
	// single-drive runs only.
	replay error
}

var (
	matrixOnce sync.Once
	matrixRuns []matrixRun
	matrixErr  error
)

// runMatrix runs the whole matrix once per test binary. Every
// single-library configuration runs twice -- through Run and through one
// Runner shared by the whole matrix -- and the two must agree on both
// digests.
func runMatrix(t *testing.T) []matrixRun {
	t.Helper()
	matrixOnce.Do(func() { matrixRuns, matrixErr = computeMatrix() })
	if matrixErr != nil {
		t.Fatal(matrixErr)
	}
	return matrixRuns
}

func computeMatrix() ([]matrixRun, error) {
	runner := NewRunner()
	var out []matrixRun
	for _, mc := range digestMatrix() {
		if mc.farm != nil {
			fc := *mc.farm
			obs := make([]*eventHasher, fc.Shards)
			fc.ShardObserver = func(i int) Observer {
				obs[i] = newEventHasher(false)
				return obs[i]
			}
			fr, err := RunFarm(fc)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mc.name, err)
			}
			h := fnv.New64a()
			var n int64
			for _, o := range obs {
				writeU64(h, o.h.Sum64())
				n += o.n
			}
			out = append(out, matrixRun{name: mc.name, events: h.Sum64(), nEvents: n,
				result: digestValue(fr)})
			continue
		}
		c := mc.cfg
		direct := newEventHasher(true)
		c.Observer = direct
		res, err := Run(c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mc.name, err)
		}
		reused := newEventHasher(false)
		c.Observer = reused
		res2, err := runner.Run(c)
		if err != nil {
			return nil, fmt.Errorf("%s (Runner): %w", mc.name, err)
		}
		r := matrixRun{name: mc.name, events: direct.h.Sum64(), nEvents: direct.n,
			result: digestValue(res), cfg: mc.cfg, res: res, sum: trace.Summarize(direct.recs),
			tally: issueTally(direct.recs, mc.cfg)}
		if mc.cfg.Drives == 1 {
			r.replay = replayTrace(mc.cfg, direct.recs)
		}
		if reused.h.Sum64() != r.events || reused.n != r.nEvents || digestValue(res2) != r.result {
			return nil, fmt.Errorf("%s: Runner.Run differs from Run", mc.name)
		}
		out = append(out, r)
	}
	return out, nil
}

// eventHasher digests every field of every observed event, optionally
// keeping the trace records for trace.Summarize.
type eventHasher struct {
	h    hash.Hash64
	n    int64
	keep bool
	recs []trace.Record
}

func newEventHasher(keep bool) *eventHasher {
	return &eventHasher{h: fnv.New64a(), keep: keep}
}

func (e *eventHasher) Observe(ev Event) {
	e.n++
	writeU64(e.h, uint64(ev.Kind))
	writeU64(e.h, math.Float64bits(ev.Time))
	writeU64(e.h, uint64(int64(ev.Tape)))
	writeU64(e.h, uint64(int64(ev.Pos)))
	writeU64(e.h, math.Float64bits(ev.Seconds))
	writeU64(e.h, uint64(ev.Request))
	if e.keep {
		e.recs = append(e.recs, trace.Record{Kind: ev.Kind.String(), Time: ev.Time,
			Tape: ev.Tape, Pos: ev.Pos, Seconds: ev.Seconds, Request: ev.Request})
	}
}

func writeU64(h hash.Hash64, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

// digestValue digests every field of a result value, floats by their bits.
func digestValue(v any) uint64 {
	h := fnv.New64a()
	hashValue(h, reflect.ValueOf(v))
	return h.Sum64()
}

func hashValue(h hash.Hash64, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			writeU64(h, 0)
			return
		}
		writeU64(h, 1)
		hashValue(h, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.Write([]byte(v.Type().Field(i).Name))
			hashValue(h, v.Field(i))
		}
	case reflect.Slice:
		writeU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashValue(h, v.Index(i))
		}
	case reflect.String:
		writeU64(h, uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Bool:
		if v.Bool() {
			writeU64(h, 1)
		} else {
			writeU64(h, 0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		writeU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		writeU64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		writeU64(h, math.Float64bits(v.Float()))
	default:
		panic(fmt.Sprintf("digest: unhandled kind %s", v.Kind()))
	}
}

func (r matrixRun) line() string {
	return fmt.Sprintf("%s %016x %d %016x", r.name, r.events, r.nEvents, r.result)
}

// TestDigestPin compares every matrix configuration's digests with the
// committed ones.
func TestDigestPin(t *testing.T) {
	runs := runMatrix(t)
	if os.Getenv("TAPEJUKE_WRITE_DIGESTS") != "" {
		var b strings.Builder
		b.WriteString("# name events-digest event-count result-digest (see digest_test.go)\n")
		for _, r := range runs {
			b.WriteString(r.line() + "\n")
		}
		if err := os.MkdirAll(filepath.Dir(digestFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(runs), digestFile)
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatalf("%v (regenerate with TAPEJUKE_WRITE_DIGESTS=1)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, _ := strings.Cut(line, " ")
		want[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		w, ok := want[r.name]
		if !ok {
			t.Errorf("%s: no pinned digest", r.name)
			continue
		}
		delete(want, r.name)
		if got := r.line(); got != w {
			t.Errorf("digest changed:\n got %s\nwant %s", got, w)
		}
	}
	for name := range want {
		t.Errorf("%s: pinned digest has no matrix configuration", name)
	}
}

// TestEnvelopeMatchesDynamicAtNR0 pins the paper's observation that without
// replicated data the envelope algorithm degenerates into the dynamic
// algorithm with the same tape-selection policy: each closed NR-0 envelope
// run emits exactly the events of its dynamic counterpart.
func TestEnvelopeMatchesDynamicAtNR0(t *testing.T) {
	byName := make(map[string]matrixRun)
	for _, r := range runMatrix(t) {
		byName[r.name] = r
	}
	for env, dyn := range map[Algorithm]Algorithm{
		EnvelopeOldestRequest: DynamicOldestMaxRequests,
		EnvelopeMaxRequests:   DynamicMaxRequests,
		EnvelopeMaxBandwidth:  DynamicMaxBandwidth,
	} {
		e, okE := byName["closed/nr0/"+string(env)]
		d, okD := byName["closed/nr0/"+string(dyn)]
		if !okE || !okD {
			t.Fatalf("matrix lacks closed/nr0/%s or closed/nr0/%s", env, dyn)
		}
		if e.events != d.events || e.nEvents != d.nEvents {
			t.Errorf("%s: events %016x (%d) differ from %s: %016x (%d)",
				env, e.events, e.nEvents, dyn, d.events, d.nEvents)
		}
	}
}
