package main

import (
	"slices"
	"sync"
	"time"
)

// The host's own speed moves under the benchmark. On a shared 2-vCPU host
// the same run's CPU time swings by up to 1.9x within a minute, in spells
// that can cover a whole run, without the kernel reporting any steal: the
// neighbours slow the CPU itself. The fastest of a few runs only helps when
// a quiet spell falls inside the run.
//
// So every host time the benchmark reports is scaled to a reference speed.
// Right before and right after everything it times, the benchmark times a
// fixed reference kernel on the same clock, and multiplies the measured
// time by refKernel over the mean of those two kernel times. The kernel
// sorts pseudo-random floats, branchy work on a working set in the CPU's
// own caches, which slows under the host's contention much as the
// simulator does; pure arithmetic and random reads from memory track it
// worse. The kernel is the benchmark's own code, so no change to the
// simulator moves it.

const (
	refKernelLen = 25_000
	// refKernel is the kernel's process CPU time on the development host
	// (2-vCPU Intel Xeon VM, Go 1.24) in its quiet spells: about the first
	// percentile of 5000 readings taken over 2.5 minutes. It fixes the
	// unit: a scaled host time reads as that host's time when nothing
	// slows it.
	refKernel = 3 * time.Millisecond
)

// speed is one reading of the host's speed.
type speed struct {
	// one is the process CPU time of one kernel pass on the calling
	// goroutine: the reference for the single-library workloads and the
	// farm's set-up, which run on one goroutine.
	one time.Duration
	// all is the wall time of one kernel pass on each farm worker at once
	// (0 without workers): the reference for the farm's parallel shards,
	// timed by the wall clock. Its reference is refKernel too, so a scaled
	// farm time reads as the time on one uncontended CPU per worker.
	all time.Duration
}

// speedMeter runs the reference kernel: on the calling goroutine, and on
// every farm worker at once where there are workers. Each sorts its own
// buffer.
type speedMeter struct {
	buf []float64
	par [][]float64
}

// newSpeedMeter returns a meter for the given number of parallel workers
// (0 when only the single-goroutine reading is needed).
func newSpeedMeter(workers int) *speedMeter {
	m := &speedMeter{buf: make([]float64, refKernelLen), par: make([][]float64, workers)}
	for i := range m.par {
		m.par[i] = make([]float64, refKernelLen)
	}
	m.read() // first touch of the buffers, and the code warmed
	return m
}

// read takes one reading of the host's speed.
func (m *speedMeter) read() speed {
	start := processCPU()
	sortKernel(m.buf)
	s := speed{one: processCPU() - start}
	if len(m.par) > 0 {
		var wg sync.WaitGroup
		t := time.Now()
		for _, b := range m.par {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sortKernel(b)
			}()
		}
		wg.Wait()
		s.all = time.Since(t)
	}
	return s
}

// sortKernel fills buf with the same pseudo-random values every time and
// sorts them. Filling it first also brings it into the cache, so the
// kernel's time does not depend on what ran before it.
func sortKernel(buf []float64) {
	x := uint64(0x9E3779B97F4A7C15)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x >> 11)
	}
	slices.Sort(buf)
}

// atRef scales a host time d, measured between two kernel times a and b on
// d's clock, to the reference speed.
func atRef(d, a, b time.Duration) time.Duration {
	mean := float64(a+b) / 2
	if mean <= 0 {
		return d
	}
	return time.Duration(float64(d) * float64(refKernel) / mean)
}
