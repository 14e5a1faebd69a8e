package tapejuke

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func shortCfg() Config {
	c := Config{HorizonSec: 150_000}.WithDefaults()
	return c
}

func TestDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.BlockMB != 16 || c.TapeCapMB != 7168 || c.Tapes != 10 {
		t.Errorf("jukebox defaults wrong: %+v", c)
	}
	if c.HotPercent != 10 || c.ReadHotPercent != 40 {
		t.Errorf("skew defaults wrong: %+v", c)
	}
	if c.Algorithm != DynamicMaxBandwidth || c.QueueLength != 60 {
		t.Errorf("workload defaults wrong: %+v", c)
	}
	// Open-queuing configs keep QueueLength at zero.
	open := Config{MeanInterarrivalSec: 100}.WithDefaults()
	if open.QueueLength != 0 {
		t.Errorf("open config grew a queue length: %+v", open)
	}
}

func TestRunDefaults(t *testing.T) {
	res, err := Run(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.ThroughputKBps <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.SchedulerName != string(DynamicMaxBandwidth) {
		t.Errorf("scheduler = %q", res.SchedulerName)
	}
}

func TestAllAlgorithmsInstantiate(t *testing.T) {
	if len(Algorithms()) != 14 {
		t.Fatalf("expected 14 algorithms, got %d", len(Algorithms()))
	}
	for _, a := range Algorithms() {
		s, err := NewScheduler(a)
		if err != nil {
			t.Errorf("%s: %v", a, err)
			continue
		}
		if s.Name() != string(a) {
			t.Errorf("scheduler name %q != algorithm %q", s.Name(), a)
		}
	}
	if _, err := NewScheduler("bogus"); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestConfigErrors(t *testing.T) {
	c := shortCfg()
	c.DriveProfile = "bogus"
	if _, err := Run(c); err == nil {
		t.Error("bogus profile accepted")
	}
	c = shortCfg()
	c.Placement = "diagonal"
	if _, err := Run(c); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("bogus placement: err = %v, want an unknown placement", err)
	}
	c = shortCfg()
	c.Algorithm = "bogus"
	if _, err := Run(c); err == nil {
		t.Error("bogus algorithm accepted")
	}
	c = shortCfg()
	c.Replicas = 99
	if _, err := Run(c); err == nil {
		t.Error("impossible replication accepted")
	}
}

func TestExpansionFactor(t *testing.T) {
	c := shortCfg()
	c.Replicas = 9
	if e := c.ExpansionFactor(); math.Abs(e-1.9) > 1e-12 {
		t.Errorf("E = %v, want 1.9", e)
	}
}

func TestCostPerformanceHelpers(t *testing.T) {
	base := shortCfg()
	base.Algorithm = EnvelopeMaxBandwidth
	b, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Replicas = 9
	repl.Placement = Vertical
	repl.StartPos = 1
	q, err := ScaledQueueLength(base.QueueLength, repl.ExpansionFactor())
	if err != nil {
		t.Fatal(err)
	}
	if q != 32 {
		t.Errorf("scaled queue = %d, want 32", q)
	}
	repl.QueueLength = q
	r, err := Run(repl)
	if err != nil {
		t.Fatal(err)
	}
	ratio, err := CostPerformanceRatio(r, b)
	if err != nil {
		t.Fatal(err)
	}
	if ratio <= 0 || ratio > 2 {
		t.Errorf("cost-performance ratio = %v, implausible", ratio)
	}
	if _, err := CostPerformanceRatio(nil, b); err == nil {
		t.Error("nil result accepted")
	}
}

func TestStreamingRate(t *testing.T) {
	kbps, err := StreamingRateKBps("exb8505xl")
	if err != nil {
		t.Fatal(err)
	}
	// 1/1.77 MB/s is about 578 KB/s.
	if kbps < 500 || kbps > 650 {
		t.Errorf("streaming rate = %v KB/s", kbps)
	}
	if _, err := StreamingRateKBps("bogus"); err == nil {
		t.Error("bogus profile accepted")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	orig := Config{
		Algorithm: EnvelopeMaxBandwidth,
		Placement: Vertical,
		Replicas:  9,
		StartPos:  1,
		ZipfS:     1.3,
		Writes:    WriteConfig{MeanInterarrivalSec: 500, Policy: WriteIdleOnly},
		Observer:  ObserverFunc(func(Event) {}), // must not serialize
	}.WithDefaults()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte("Observer")) {
		t.Error("Observer leaked into JSON")
	}
	// The choices encode as their public spellings, which saved
	// configurations and jukesim -config files depend on.
	for _, want := range []string{`"Placement":"vertical"`, `"Policy":"idle-only"`} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("encoded config lacks %s:\n%s", want, data)
		}
	}
	fdata, err := json.Marshal(FarmConfig{Shards: 3, Placement: FarmSpread, Base: orig})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(fdata, []byte(`"Placement":"spread"`)) {
		t.Errorf("encoded farm config lacks \"Placement\":\"spread\":\n%s", fdata)
	}
	var back Config
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	orig.Observer = nil
	if !reflect.DeepEqual(orig, back) {
		t.Errorf("round trip changed the config:\n%+v\n%+v", orig, back)
	}
	back.HorizonSec = 100_000
	if _, err := Run(back); err != nil {
		t.Fatalf("deserialized config does not run: %v", err)
	}
}

func TestPlanGradualFill(t *testing.T) {
	base := shortCfg()
	base.DataMB = 0.3 * 10 * 7168
	cfg, plan, err := PlanGradualFill(base)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stage != FillEarly || plan.Replicas != 9 {
		t.Errorf("30%% fill plan: %+v", plan)
	}
	if cfg.Placement != Vertical || !cfg.PackAfterData {
		t.Errorf("30%% fill config: placement=%s packed=%v", cfg.Placement, cfg.PackAfterData)
	}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("planned config does not run: %v", err)
	}

	base.DataMB = 10 * 7168 // completely full
	cfg, plan, err = PlanGradualFill(base)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Stage != FillRecapture || cfg.Replicas != 0 || cfg.PackAfterData {
		t.Errorf("full plan: %+v cfg: %+v", plan, cfg)
	}

	base.DataMB = 0
	if _, _, err := PlanGradualFill(base); err == nil {
		t.Error("missing DataMB accepted")
	}
}

func TestZipfWorkloadEndToEnd(t *testing.T) {
	// The paper's replication recommendation holds under Zipf popularity
	// too: replicating the top-ranked (hot-class) blocks on every tape
	// raises throughput.
	base := shortCfg()
	base.ZipfS = 1.4
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Placement = Vertical
	repl.Replicas = 9
	repl.StartPos = 1
	repl.Algorithm = EnvelopeMaxBandwidth
	full, err := Run(repl)
	if err != nil {
		t.Fatal(err)
	}
	if full.ThroughputKBps <= plain.ThroughputKBps {
		t.Errorf("replication under Zipf: %.1f vs %.1f KB/s, expected a gain",
			full.ThroughputKBps, plain.ThroughputKBps)
	}
	bad := base
	bad.ZipfS = 0.5
	if _, err := Run(bad); err == nil {
		t.Error("Zipf exponent 0.5 accepted")
	}
}

func TestReadsConcentrateOnHotTape(t *testing.T) {
	// Vertical layout: tape 0 holds all hot data, which draws RH=40% of
	// requests. The per-tape read counters must show that concentration.
	cfg := shortCfg()
	cfg.Placement = Vertical
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReadsPerTape) != 10 {
		t.Fatalf("ReadsPerTape has %d entries", len(res.ReadsPerTape))
	}
	frac := float64(res.ReadsPerTape[0]) / float64(res.Completed)
	if frac < 0.3 || frac > 0.5 {
		t.Errorf("hot tape served %.0f%% of reads, want about 40%%", frac*100)
	}
	// With full replication the envelope spreads hot reads across tapes:
	// the original hot tape loses its monopoly.
	cfg.Replicas = 9
	cfg.StartPos = 1
	cfg.Algorithm = EnvelopeMaxBandwidth
	repl, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rfrac := float64(repl.ReadsPerTape[0]) / float64(repl.Completed)
	if rfrac >= frac {
		t.Errorf("replication left the hot tape at %.0f%% of reads (was %.0f%%)",
			rfrac*100, frac*100)
	}
}

func TestAnalyze(t *testing.T) {
	cfg := shortCfg()
	est, err := Analyze(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The closed form models fair rotation; the dynamic max-bandwidth
	// simulation should land within ~25% of it on the default skew.
	lo, hi := est.ThroughputKBps*0.75, est.ThroughputKBps*1.35
	if res.ThroughputKBps < lo || res.ThroughputKBps > hi {
		t.Errorf("simulated %.1f KB/s outside [%.1f, %.1f] around analytic %.1f",
			res.ThroughputKBps, lo, hi, est.ThroughputKBps)
	}

	bad := shortCfg()
	bad.Replicas = 3
	if _, err := Analyze(bad); err == nil {
		t.Error("replication accepted")
	}
	bad = shortCfg()
	bad.QueueLength = 0
	bad.MeanInterarrivalSec = 100
	if _, err := Analyze(bad); err == nil {
		t.Error("open queuing accepted")
	}
	bad = shortCfg()
	bad.DriveProfile = "dlt7000"
	if _, err := Analyze(bad); err == nil {
		t.Error("serpentine profile accepted")
	}
	bad = shortCfg()
	bad.Placement = "diagonal"
	if _, err := Analyze(bad); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("unknown placement: err = %v, want the placement rejected as Run rejects it", err)
	}

	// A partially filled jukebox: the estimate reads the layout the run
	// simulates, not a full jukebox's.
	part := shortCfg()
	part.DataMB = 20_000
	pest, err := Analyze(part)
	if err != nil {
		t.Fatal(err)
	}
	pres, err := Run(part)
	if err != nil {
		t.Fatal(err)
	}
	if pest.ThroughputKBps == est.ThroughputKBps {
		t.Errorf("DataMB %v: estimate %.1f KB/s equals the full jukebox's", part.DataMB, pest.ThroughputKBps)
	}
	if math.Abs(pest.ThroughputKBps-pres.ThroughputKBps) > 0.15*pres.ThroughputKBps {
		t.Errorf("DataMB %v: estimate %.1f KB/s is not within 15%% of the simulated %.1f KB/s",
			part.DataMB, pest.ThroughputKBps, pres.ThroughputKBps)
	}
}

func TestAssessOpenLoad(t *testing.T) {
	cfg := shortCfg()
	cfg.QueueLength = 0
	cfg.MeanInterarrivalSec = 30
	a, err := AssessOpenLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Saturated || a.Utilization <= 1 {
		t.Errorf("30 s arrivals should saturate: %+v", a)
	}
	cfg.MeanInterarrivalSec = 600
	a, err = AssessOpenLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Saturated {
		t.Errorf("600 s arrivals should not saturate: %+v", a)
	}
	bad := shortCfg() // closed config
	if _, err := AssessOpenLoad(bad); err == nil {
		t.Error("closed config accepted")
	}
	bad = cfg // open config
	bad.Placement = "diagonal"
	if _, err := AssessOpenLoad(bad); err == nil || !strings.Contains(err.Error(), "unknown placement") {
		t.Errorf("unknown placement: err = %v, want the placement rejected as Run rejects it", err)
	}
}

func TestClusteredAccessHelps(t *testing.T) {
	// The paper excludes clustered dependencies and notes it therefore
	// leaves performance on the table; the extension confirms the
	// direction: sequential runs raise throughput (adjacent blocks need no
	// locates).
	indep, err := Run(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := shortCfg()
	c.SequentialProb = 0.6
	clustered, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if clustered.ThroughputKBps <= indep.ThroughputKBps {
		t.Errorf("clustered access (%.1f KB/s) should beat independent (%.1f KB/s)",
			clustered.ThroughputKBps, indep.ThroughputKBps)
	}
	c.SequentialProb = 1.5
	if _, err := Run(c); err == nil {
		t.Error("probability above 1 accepted")
	}
}

func TestMultiDriveConfig(t *testing.T) {
	one, err := Run(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := shortCfg()
	c.Drives = 2
	two, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if two.ThroughputKBps <= one.ThroughputKBps {
		t.Errorf("2 drives (%v KB/s) should beat 1 drive (%v KB/s)",
			two.ThroughputKBps, one.ThroughputKBps)
	}
	c.Drives = 99
	if _, err := Run(c); err == nil {
		t.Error("99 drives on 10 tapes accepted")
	}
}

func TestFastProfileIsFaster(t *testing.T) {
	slow, err := Run(shortCfg())
	if err != nil {
		t.Fatal(err)
	}
	c := shortCfg()
	c.DriveProfile = "fast"
	fast, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if fast.ThroughputKBps <= slow.ThroughputKBps {
		t.Errorf("fast drive %v KB/s should beat EXB %v KB/s",
			fast.ThroughputKBps, slow.ThroughputKBps)
	}
}
