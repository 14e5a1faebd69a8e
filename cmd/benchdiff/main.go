// Command benchdiff records `go test -bench` results into a JSON perf
// trajectory file and compares runs against a recorded baseline.
//
// It parses standard benchmark output lines:
//
//	BenchmarkEnvelopeReschedule/q=140-8   139272   9219 ns/op   184 B/op   3 allocs/op
//
// including custom metrics (KB/s, requests), and appends one labelled
// entry per invocation to the JSON file (replacing any previous entry with
// the same label, so re-runs update in place):
//
//	go test -run '^$' -bench . -benchmem ./internal/core | \
//	    benchdiff -in - -json BENCH_sched.json -label post-PR1
//
// With -compare LABEL it prints a delta table against the entry recorded
// under LABEL and exits non-zero when any benchmark's ns/op regressed by
// more than -threshold (default 1.20, i.e. 20%). scripts/bench.sh wires
// this into the repo's pre-merge routine.
//
// With -calibrate NAME the comparison divides every benchmark's ns/op
// ratio by the ratio of the named calibration benchmark, cancelling the
// uniform machine-speed skew between the two runs (recorded entries from
// different machines or CPU-frequency states drift together by a constant
// factor; see DESIGN.md's bench note). The regression threshold then
// applies to the normalized ratios, so a cross-machine comparison no
// longer needs a manual stash A/B to interpret.
//
// Every entry records the machine it ran on: NumCPU, GOMAXPROCS,
// GOOS/GOARCH and the Go version of the benchdiff process, which
// scripts/bench.sh runs right after the benchmarks in the same
// environment. -compare refuses (exits non-zero) when both entries carry
// machine records that differ, unless -calibrate is given; an entry
// without a record (one made before records existed) compares as before,
// with a warning.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result holds one benchmark's parsed measurements.
type Result struct {
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	BytesPerOp float64            `json:"bytes_per_op,omitempty"`
	AllocsOp   float64            `json:"allocs_per_op,omitempty"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// Entry is one labelled benchmark run.
type Entry struct {
	Label      string            `json:"label"`
	Date       string            `json:"date"`
	Machine    *Machine          `json:"machine,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Machine records the host an entry ran on, with the field names
// perfbench uses for its own machine record.
type Machine struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
}

// thisMachine describes the running process's host.
func thisMachine() *Machine {
	return &Machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
	}
}

func (m *Machine) String() string {
	return fmt.Sprintf("%d CPUs, GOMAXPROCS %d, %s/%s, %s", m.NumCPU, m.GOMAXPROCS, m.GOOS, m.GOARCH, m.GoVersion)
}

// File is the on-disk trajectory: a sequence of labelled runs.
type File struct {
	Entries []Entry `json:"entries"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command with its arguments and streams passed in; it returns
// the exit status: 0 on success, 1 on a regression, a refused comparison
// or an error, 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "-", "benchmark output to parse (file path or - for stdin)")
	jsonPath := fs.String("json", "BENCH_sched.json", "JSON trajectory file to update")
	label := fs.String("label", "", "label for this run (required)")
	compare := fs.String("compare", "", "baseline label to diff against")
	threshold := fs.Float64("threshold", 1.20, "ns/op regression factor that fails the run")
	calibrate := fs.String("calibrate", "", "benchmark whose ns/op ratio normalizes all deltas (cancels uniform machine skew)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *label == "" {
		fmt.Fprintln(stderr, "benchdiff: -label is required")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 1
	}

	r := stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		r = f
	}
	benchmarks, err := parse(r)
	if err != nil {
		return fail(err)
	}
	if len(benchmarks) == 0 {
		return fail(fmt.Errorf("no benchmark lines found in %s", *in))
	}

	file := &File{}
	if raw, err := os.ReadFile(*jsonPath); err == nil {
		if err := json.Unmarshal(raw, file); err != nil {
			return fail(fmt.Errorf("parsing %s: %w", *jsonPath, err))
		}
	} else if !os.IsNotExist(err) {
		return fail(err)
	}

	entry := Entry{
		Label:      *label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		Machine:    thisMachine(),
		Benchmarks: benchmarks,
	}
	replaced := false
	for i := range file.Entries {
		if file.Entries[i].Label == *label {
			file.Entries[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		file.Entries = append(file.Entries, entry)
	}
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "benchdiff: recorded %d benchmarks under %q in %s\n", len(benchmarks), *label, *jsonPath)

	if *compare == "" {
		return 0
	}
	var base *Entry
	for i := range file.Entries {
		if file.Entries[i].Label == *compare {
			base = &file.Entries[i]
			break
		}
	}
	if base == nil {
		return fail(fmt.Errorf("no entry labelled %q in %s", *compare, *jsonPath))
	}
	switch {
	case base.Machine == nil:
		fmt.Fprintf(stderr, "benchdiff: warning: %q has no machine record; the ratios may mix machines\n", base.Label)
	case *base.Machine != *entry.Machine && *calibrate == "":
		return fail(fmt.Errorf("refusing to compare across machines: %q ran on %v, %q on %v (pass -calibrate NAME to normalize)",
			base.Label, base.Machine, entry.Label, entry.Machine))
	}
	regressed, err := diff(stdout, base, &entry, *threshold, *calibrate)
	if err != nil {
		return fail(err)
	}
	if regressed {
		fmt.Fprintf(stderr, "benchdiff: ns/op regression beyond %.2fx against %q\n", *threshold, *compare)
		return 1
	}
	return 0
}

// parse extracts benchmark results from go test -bench output.
func parse(r io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(sc.Text()))
		if m == nil {
			continue
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Iterations: iters}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = v
			case "B/op":
				res.BytesPerOp = v
			case "allocs/op":
				res.AllocsOp = v
			default:
				if res.Metrics == nil {
					res.Metrics = make(map[string]float64)
				}
				res.Metrics[unit] = v
			}
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

// diff writes a delta table to w and reports whether any common
// benchmark's ns/op regressed beyond the threshold factor. With a
// calibration benchmark named, every ratio is divided by that benchmark's
// own ratio before the threshold applies, so a uniform machine-speed skew
// between the two runs cancels out; the calibration benchmark itself
// (normalized 1.00 by construction) is exempt from the regression check.
func diff(w io.Writer, base, cur *Entry, threshold float64, calibrate string) (bool, error) {
	scale := 1.0
	if calibrate != "" {
		b, okB := base.Benchmarks[calibrate]
		c, okC := cur.Benchmarks[calibrate]
		if !okB || !okC || b.NsPerOp <= 0 || c.NsPerOp <= 0 {
			return false, fmt.Errorf("calibration benchmark %q missing from %q or %q", calibrate, base.Label, cur.Label)
		}
		scale = c.NsPerOp / b.NsPerOp
		fmt.Fprintf(w, "calibrated by %s: machine skew %.2fx divided out of every ratio\n", calibrate, scale)
	}
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := base.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	regressed := false
	fmt.Fprintf(w, "%-50s %14s %14s %8s\n", "benchmark", base.Label, cur.Label, "ratio")
	for _, name := range names {
		b, c := base.Benchmarks[name], cur.Benchmarks[name]
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp / scale
		mark := ""
		if ratio > threshold && name != calibrate {
			mark = "  REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-50s %12.0fns %12.0fns %7.2fx%s\n", name, b.NsPerOp, c.NsPerOp, ratio, mark)
	}
	return regressed, nil
}
