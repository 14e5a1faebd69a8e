// Command perfbench is the repository's benchmark: it runs one of four
// workloads through the public tapejuke API, checks every run's output,
// and prints the simulator's host cost and the simulated jukebox's
// performance. With --trace 1 it runs the workload a second way, with
// timing wrappers around the calls into each layer, and prints per-layer
// metrics instead. See README.md for the workloads and how to read the
// numbers.
//
// Usage:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]
//	perfbench --workload all|NAME --repeat N [--seed N --seconds S --trace 0|1]
//
// The first form prints, as its last line, one JSON object with the keys
// correct, attempted, failed and metrics. The second is the steadiness
// mode: it runs each named workload N times in fresh processes, with seeds
// seed..seed+N-1, and prints per metric the median, the quartiles and the
// spread (interquartile distance over median).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all (steadiness mode)")
	seed := fs.Int64("seed", 1, "workload seed; every simulation seed derives from it")
	seconds := fs.Float64("seconds", 10, "seconds one run measures")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	spans := fs.String("spans", "", "write the last traced run's spans to this file (with --trace 1)")
	repeat := fs.Int("repeat", 0, "steadiness mode: runs per workload, each in a fresh process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	if *name == "all" || *repeat > 0 {
		return steadiness(*name, *seed, *seconds, *traceFlag, max(*repeat, 1), stdout, stderr)
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q; choose one of %s\n", *name, workloadNames())
		return 2
	}
	rep := bench(w, options{
		seed:    *seed,
		seconds: *seconds,
		scale:   1,
		trace:   *traceFlag == 1,
		wrap:    traceScheduler,
		spans:   *spans,
	})
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rep.err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, rep.err)
		return 1
	}
	return 0
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// printReport writes the machine record and the sample counts as JSON
// lines, then the result object as the last line.
func printReport(w io.Writer, rep *runReport) error {
	for _, v := range []any{map[string]any{"machine": rep.machine}, map[string]any{"samples": rep.samples}} {
		line, err := json.Marshal(v)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\n", line)
	}
	correct := rep.err == nil && rep.failed == 0
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, correct, rep.attempted, rep.failed)
	for i, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, m.name, strconv.FormatFloat(m.value, 'g', -1, 64), m.unit)
	}
	b.WriteString("}}")
	_, err := fmt.Fprintln(w, b.String())
	return err
}

// result is the last line of a run, as the steadiness mode reads it back.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// steadiness runs each selected workload n times, each run in a fresh
// process of this binary with its own seed, and prints every metric's
// median, quartiles and spread. It fails when any run fails.
func steadiness(name string, seed int64, seconds float64, traceFlag, n int, stdout, stderr io.Writer) int {
	sel := workloads
	if name != "" && name != "all" {
		w := workloadByName(name)
		if w == nil {
			fmt.Fprintf(stderr, "perfbench: unknown workload %q; choose one of %s\n", name, workloadNames())
			return 2
		}
		sel = []*workloadDef{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	status := 0
	for _, w := range sel {
		vals := map[string][]float64{}
		units := map[string]string{}
		for i := 0; i < n; i++ {
			s := seed + int64(i)
			res, err := runChild(self, w.name, s, seconds, traceFlag, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
				status = 1
				continue
			}
			for m, v := range res.Metrics {
				units[m] = v.Unit
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Fprintf(stdout, "%s (%d runs, seeds %d..%d, %gs, trace %d)\n", w.name, n, seed, seed+int64(n)-1, seconds, traceFlag)
		fmt.Fprintf(stdout, "  %-36s %-7s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
		for _, m := range metricOrder(traceFlag == 1) {
			if vs, ok := vals[m]; ok {
				q1, med, q3 := quartiles(vs)
				fmt.Fprintf(stdout, "  %-36s %-7s %14.6g %14.6g %14.6g %8.4f\n", m, units[m], q1, med, q3, spread(vs))
			}
		}
	}
	return status
}

// metricOrder lists the metric names of a timed or a traced run in output
// order.
func metricOrder(traced bool) []string {
	if traced {
		var out []string
		for _, m := range perLayerMetrics {
			out = append(out, m.name)
		}
		return out
	}
	out := []string{"setup_s", "host_ns_per_req", "peak_rss_mb"}
	for _, m := range endToEndSim {
		out = append(out, m.name)
	}
	return out
}

// runChild runs one benchmark process and parses its last output line. It
// waits for the child to exit; a run that exits non-zero or reports
// correct=false is an error.
func runChild(self, name string, seed int64, seconds float64, traceFlag int, stderr io.Writer) (*result, error) {
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(traceFlag))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, errors.New("run reported a failure")
	}
	return &res, nil
}
