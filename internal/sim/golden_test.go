package sim

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// goldenPath holds the Drives=1 Result metrics captured from the
// pre-unification synchronous single-drive engine (the engine.run loop that
// existed before the event-calendar kernel). The unified kernel must
// reproduce these metrics so the paper's reproduced figures cannot drift.
const goldenPath = "testdata/golden_single.json"

// goldenCases enumerates the pinned configurations: schedulers x
// {fault model on/off, write extension on/off} x {closed, open} x seeds.
// Each entry constructs a fresh Config (schedulers are stateful).
func goldenCases() map[string]func() Config {
	closed := func(s sched.Scheduler, seed int64) Config {
		cfg := quickCfg(s)
		cfg.Seed = seed
		return cfg
	}
	flt := func(s sched.Scheduler, nr int, seed int64, fc faults.Config) Config {
		cfg := faultCfg(nr, fc)
		cfg.Scheduler = s
		cfg.Seed = seed
		cfg.Horizon = 400_000
		cfg.Faults = fc
		return cfg
	}
	allFaults := faults.Config{
		ReadTransientProb: 0.05,
		SwitchFailProb:    0.1,
		TapeMTBFSec:       500_000,
		DriveMTBFSec:      150_000,
		BadBlocksPerTape:  1,
	}
	return map[string]func() Config{
		"closed-fifo-s1":   func() Config { return closed(sched.NewFIFO(), 1) },
		"closed-static-s1": func() Config { return closed(sched.NewStatic(sched.MaxRequests), 1) },
		"closed-dynmbw-s1": func() Config { return closed(sched.NewDynamic(sched.MaxBandwidth), 1) },
		"closed-envmbw-s1": func() Config { return closed(core.NewEnvelope(core.MaxBandwidth), 1) },
		"repl-envmbw-s1": func() Config {
			cfg := closed(core.NewEnvelope(core.MaxBandwidth), 1)
			cfg.Replicas = 4
			cfg.Kind = layout.Vertical
			cfg.StartPos = 1
			return cfg
		},
		"repl-dynmbw-s7": func() Config {
			cfg := closed(sched.NewDynamic(sched.MaxBandwidth), 7)
			cfg.Replicas = 4
			cfg.Kind = layout.Vertical
			cfg.StartPos = 1
			return cfg
		},
		"open-dynmbw-s1": func() Config {
			cfg := closed(sched.NewDynamic(sched.MaxBandwidth), 1)
			cfg.QueueLength = 0
			cfg.MeanInterarrival = 120
			return cfg
		},
		"open-envmbw-s7": func() Config {
			cfg := closed(core.NewEnvelope(core.MaxBandwidth), 7)
			cfg.QueueLength = 0
			cfg.MeanInterarrival = 120
			return cfg
		},
		"faults-envmbw-s1": func() Config {
			return flt(core.NewEnvelope(core.MaxBandwidth), 1, 1, allFaults)
		},
		"faults-dynmbw-s7": func() Config {
			return flt(sched.NewDynamic(sched.MaxBandwidth), 1, 7, allFaults)
		},
		"faults-fifo-s1": func() Config {
			// NR=0: tape failures strand requests (the unserviceable path).
			return flt(sched.NewFIFO(), 0, 1, allFaults)
		},
		"faults-open-envmbw-s1": func() Config {
			cfg := flt(core.NewEnvelope(core.MaxBandwidth), 1, 1, allFaults)
			cfg.QueueLength = 0
			cfg.MeanInterarrival = 200
			return cfg
		},
		"writes-pb-dynmbw-s1": func() Config {
			cfg := closed(sched.NewDynamic(sched.MaxBandwidth), 1)
			cfg.WriteMeanInterarrival = 300
			cfg.WritePolicy = WritePiggyback
			return cfg
		},
		"writes-idle-dynmbw-s1": func() Config {
			cfg := closed(sched.NewDynamic(sched.MaxBandwidth), 1)
			cfg.QueueLength = 0
			cfg.MeanInterarrival = 1000
			cfg.WriteMeanInterarrival = 400
			cfg.WritePolicy = WriteIdleOnly
			cfg.WriteFlushThreshold = 50
			return cfg
		},
		"writes-both-envmbw-s7": func() Config {
			cfg := closed(core.NewEnvelope(core.MaxBandwidth), 7)
			cfg.WriteMeanInterarrival = 250
			cfg.WritePolicy = WritePiggybackAndIdle
			cfg.WriteFlushThreshold = 80
			return cfg
		},
	}
}

// compareResults checks got against the golden want: integer and string
// fields exactly, float fields within a relative tolerance that absorbs the
// clock-accumulation reordering of the unified kernel (the old engine summed
// operation segments one at a time; the kernel jumps to precomputed
// completion times, so the last few bits of long float sums may differ).
func compareResults(t *testing.T, name string, got, want *Result) {
	t.Helper()
	const tol = 1e-9
	gv := reflect.ValueOf(*got)
	wv := reflect.ValueOf(*want)
	rt := gv.Type()
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		g, w := gv.Field(i), wv.Field(i)
		switch f.Type.Kind() {
		case reflect.Float64:
			gf, wf := g.Float(), w.Float()
			scale := math.Max(math.Abs(gf), math.Abs(wf))
			if diff := math.Abs(gf - wf); diff > tol*math.Max(scale, 1) {
				t.Errorf("%s: %s = %v, golden %v (diff %g)", name, f.Name, gf, wf, diff)
			}
		default:
			if !reflect.DeepEqual(g.Interface(), w.Interface()) {
				t.Errorf("%s: %s = %v, golden %v", name, f.Name, g.Interface(), w.Interface())
			}
		}
	}
}

// TestGoldenSingleDrive is the differential pin: Drives=1 on the current
// engine reproduces the Result metrics captured from the pre-refactor
// engine for every golden case. Regenerate (only ever from a known-good
// engine) with SIM_UPDATE_GOLDEN=1 go test ./internal/sim -run TestGoldenSingleDrive
func TestGoldenSingleDrive(t *testing.T) {
	cases := goldenCases()
	if os.Getenv("SIM_UPDATE_GOLDEN") != "" {
		out := make(map[string]*Result, len(cases))
		for name, mk := range cases {
			res, err := Run(mk())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = res
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden cases to %s", len(out), goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (generate with SIM_UPDATE_GOLDEN=1): %v", err)
	}
	want := map[string]*Result{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			w, ok := want[name]
			if !ok {
				t.Fatalf("golden file has no entry %q; regenerate", name)
			}
			res, err := Run(cases[name]())
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, name, res, w)
		})
	}
}
