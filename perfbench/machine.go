package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// machine records what the host looked like during one benchmark run, so a
// stolen CPU can be told apart from a slow program.
type machine struct {
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Seed        int64  `json:"seed"`
	FarmWorkers int    `json:"farm_workers"`
	// StealTicks and IdleTicks are the all-CPU steal and idle counters of
	// /proc/stat accumulated over the run (USER_HZ ticks); TotalTicks is
	// the sum of every counter over the same interval. They stay zero
	// where /proc/stat is unreadable.
	StealTicks int64 `json:"steal_ticks"`
	IdleTicks  int64 `json:"idle_ticks"`
	TotalTicks int64 `json:"total_ticks"`
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ idle, steal, total int64 }

// readCPUTicks reads the aggregate CPU counters; ok is false where the
// file does not exist (the record then shows zeros).
func readCPUTicks() (t cpuTicks, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := strings.Fields(string(line))
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	// user nice system idle iowait irq softirq steal [guest guest_nice];
	// guest time is already counted in user, so it is left out of total.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return t, false
		}
		t.total += v
		switch i {
		case 3:
			t.idle = v
		case 7:
			t.steal = v
		}
	}
	return t, true
}

func newMachine(seed int64, farmWorkers int) *machine {
	return &machine{
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		Seed:        seed,
		FarmWorkers: farmWorkers,
	}
}

// record adds the CPU counters accumulated between two readings.
func (m *machine) record(before, after cpuTicks) {
	m.StealTicks = after.steal - before.steal
	m.IdleTicks = after.idle - before.idle
	m.TotalTicks = after.total - before.total
}

// resetPeakRSS sets the process's peak resident set size (VmHWM) back to
// its current resident set size, so that the next peakRSSMB reading is the
// peak since this call.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("peak RSS reset: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, found := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("peak RSS: unexpected VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("peak RSS: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// goRuntime is a reading of the Go runtime's cumulative allocation and
// CPU-class counters.
type goRuntime struct {
	allocObjects, allocBytes uint64
	gcCPU, userCPU           float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/user:cpu-seconds"},
}

func readGoRuntime() goRuntime {
	metrics.Read(runtimeSamples)
	return goRuntime{
		allocObjects: runtimeSamples[0].Value.Uint64(),
		allocBytes:   runtimeSamples[1].Value.Uint64(),
		gcCPU:        runtimeSamples[2].Value.Float64(),
		userCPU:      runtimeSamples[3].Value.Float64(),
	}
}

// sub returns the counters accumulated since an earlier reading.
func (g goRuntime) sub(prev goRuntime) goRuntime {
	return goRuntime{
		allocObjects: g.allocObjects - prev.allocObjects,
		allocBytes:   g.allocBytes - prev.allocBytes,
		gcCPU:        g.gcCPU - prev.gcCPU,
		userCPU:      g.userCPU - prev.userCPU,
	}
}

func (g *goRuntime) add(d goRuntime) {
	g.allocObjects += d.allocObjects
	g.allocBytes += d.allocBytes
	g.gcCPU += d.gcCPU
	g.userCPU += d.userCPU
}
