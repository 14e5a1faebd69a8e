package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: tapejuke/internal/sched
BenchmarkRescheduleStaticMaxBandwidth140-2   	  131071	      9104 ns/op	    1347 B/op	      14 allocs/op
BenchmarkFullRun-8   	      50	  23456789 ns/op	  262.9 KB/s	    1525 requests
BenchmarkFiguresFullWall 1 17000000000 ns/op
PASS
ok  	tapejuke/internal/sched	3.2s
`

func TestParse(t *testing.T) {
	got, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(got), got)
	}
	r := got["BenchmarkRescheduleStaticMaxBandwidth140"]
	if r.Iterations != 131071 || r.NsPerOp != 9104 || r.BytesPerOp != 1347 || r.AllocsOp != 14 {
		t.Errorf("GOMAXPROCS-suffixed line parsed as %+v", r)
	}
	full := got["BenchmarkFullRun"]
	if full.Metrics["KB/s"] != 262.9 || full.Metrics["requests"] != 1525 {
		t.Errorf("custom metrics parsed as %v", full.Metrics)
	}
	if got["BenchmarkFiguresFullWall"].NsPerOp != 17e9 {
		t.Errorf("suffix-free line parsed as %+v", got["BenchmarkFiguresFullWall"])
	}
}

func entry(label string, ns map[string]float64) *Entry {
	e := &Entry{Label: label, Benchmarks: make(map[string]Result)}
	for name, v := range ns {
		e.Benchmarks[name] = Result{Iterations: 1, NsPerOp: v}
	}
	return e
}

func TestDiffRatioTable(t *testing.T) {
	base := entry("old", map[string]float64{"BenchmarkA": 100, "BenchmarkB": 100, "BenchmarkOnlyOld": 5})
	cur := entry("new", map[string]float64{"BenchmarkA": 110, "BenchmarkB": 150, "BenchmarkOnlyNew": 5})

	var w bytes.Buffer
	regressed, err := diff(&w, base, cur, 1.20, "")
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Error("a 1.50x slowdown did not count as a regression at 1.20")
	}
	out := w.String()
	for _, want := range []string{"1.10x", "1.50x  REGRESSION"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Only") {
		t.Errorf("table lists a benchmark missing from one side:\n%s", out)
	}
	if strings.Contains(out, "1.10x  REGRESSION") {
		t.Errorf("a 1.10x ratio was flagged:\n%s", out)
	}

	// Calibrating by B divides its 1.50x skew out: A becomes 0.73x and B,
	// the calibration itself, 1.00x -- no regression.
	w.Reset()
	regressed, err = diff(&w, base, cur, 1.20, "BenchmarkB")
	if err != nil {
		t.Fatal(err)
	}
	if regressed || !strings.Contains(w.String(), "0.73x") {
		t.Errorf("calibrated diff regressed=%v:\n%s", regressed, w.String())
	}
	if _, err := diff(&w, base, cur, 1.20, "BenchmarkMissing"); err == nil {
		t.Error("a missing calibration benchmark was accepted")
	}
}

// writeBaseline stores one baseline entry, with the given machine record,
// in a fresh trajectory file and returns its path.
func writeBaseline(t *testing.T, m *Machine) string {
	t.Helper()
	base := entry("base", map[string]float64{"BenchmarkRescheduleStaticMaxBandwidth140": 9000})
	base.Machine = m
	raw, err := json.Marshal(File{Entries: []Entry{*base}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runWith(path string, extra ...string) (code int, stdout, stderr string) {
	var o, e bytes.Buffer
	args := append([]string{"-json", path, "-label", "cur", "-compare", "base"}, extra...)
	code = run(args, strings.NewReader(sampleOutput), &o, &e)
	return code, o.String(), e.String()
}

func TestCompareRefusesAcrossMachines(t *testing.T) {
	here := thisMachine()
	other := *here
	other.NumCPU++

	code, out, errOut := runWith(writeBaseline(t, here))
	if code != 0 || !strings.Contains(out, "1.01x") {
		t.Errorf("same machine: exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}

	path := writeBaseline(t, &other)
	code, out, errOut = runWith(path)
	if code == 0 || !strings.Contains(errOut, "refusing to compare across machines") {
		t.Errorf("different machines: exit %d, stderr:\n%s", code, errOut)
	}
	if strings.Contains(out, "ratio") {
		t.Errorf("refused comparison still printed a table:\n%s", out)
	}
	// The run is still recorded, with this machine's record.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.Entries) != 2 || f.Entries[1].Machine == nil || *f.Entries[1].Machine != *here {
		t.Errorf("recorded entries %+v, want base plus cur with this machine's record", f.Entries)
	}

	code, out, _ = runWith(writeBaseline(t, &other), "-calibrate", "BenchmarkRescheduleStaticMaxBandwidth140")
	if code != 0 || !strings.Contains(out, "calibrated by") {
		t.Errorf("calibrated cross-machine comparison: exit %d, stdout:\n%s", code, out)
	}

	code, out, errOut = runWith(writeBaseline(t, nil))
	if code != 0 || !strings.Contains(errOut, "no machine record") || !strings.Contains(out, "1.01x") {
		t.Errorf("record-less baseline: exit %d, stdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}
