package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// benchEnvelopeState builds a replicated scheduling state with n pending
// requests: the envelope algorithm's costly case.
func benchEnvelopeState(b *testing.B, n, nr int) (*sched.State, []*sched.Request) {
	b.Helper()
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10,
		Replicas: nr, Kind: layout.Vertical, StartPos: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := sched.NewState(l, benchCosts(l.TapeCap()))
	st.Mounted, st.Head = 3, 100
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		st.Pending = append(st.Pending, &sched.Request{
			ID: int64(i), Block: layout.BlockID(rng.Intn(l.NumBlocks())),
		})
	}
	return st, append([]*sched.Request(nil), st.Pending...)
}

// benchCosts builds the cost model as the simulator does, with the dense
// cost table over the whole tape, so the benchmarks time the path every
// helical-scan run takes. Tests keep the untabled costs().
func benchCosts(capBlocks int) *sched.CostModel {
	c := costs()
	c.EnableTable(capBlocks)
	return c
}

func benchUpperEnvelope(b *testing.B, n, nr int) {
	st, _ := benchEnvelopeState(b, n, nr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeUpperEnvelope(st)
	}
}

func BenchmarkUpperEnvelope60FullRepl(b *testing.B)  { benchUpperEnvelope(b, 60, 9) }
func BenchmarkUpperEnvelope140FullRepl(b *testing.B) { benchUpperEnvelope(b, 140, 9) }
func BenchmarkUpperEnvelope140NoRepl(b *testing.B)   { benchUpperEnvelope(b, 140, 0) }

func BenchmarkEnvelopeReschedule140(b *testing.B) {
	st, saved := benchEnvelopeState(b, 140, 9)
	e := NewEnvelope(MaxBandwidth)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sweep, ok := e.Reschedule(st)
		if !ok {
			b.Fatal("reschedule failed")
		}
		st.ReleaseSweep(sweep)
		st.Pending = append(st.Pending[:0], saved...)
	}
}

// BenchmarkEnvelopeReschedule exercises the pure major-reschedule path
// (envelope construction, tape selection, request extraction) without the
// simulation engine, across the queue lengths of the paper's figures and
// full replication. Each iteration releases the sweep to the pool, as the
// engine does, and allocations are reported, so scripts/bench.sh tracks
// the steady-state reschedule's own allocation profile.
func BenchmarkEnvelopeReschedule(b *testing.B) {
	cases := []struct {
		name string
		q    int // pending queue length
		nr   int // replicas per hot block
	}{
		{"q=60", 60, 4},
		{"q=140", 140, 4},
		{"repl=9", 60, 9},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st, saved := benchEnvelopeState(b, tc.q, tc.nr)
			e := NewEnvelope(MaxBandwidth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sweep, ok := e.Reschedule(st)
				if !ok {
					b.Fatal("reschedule failed")
				}
				st.ReleaseSweep(sweep)
				st.Pending = append(st.Pending[:0], saved...)
			}
		})
	}
}

// BenchmarkEnvelopeRescheduleShortQueue is the short-queue regime of a
// sharded farm: three pending requests on a jukebox of 10, 100 and 1,000
// tapes, a tenth of the blocks hot with one extra copy each. A reschedule
// visits only the tapes that hold a pending copy, so its cost should not
// grow with the tape count. Each iteration releases the sweep to the pool,
// as the engine does, so allocations are the reschedule's own.
func BenchmarkEnvelopeRescheduleShortQueue(b *testing.B) {
	for _, tapes := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("tapes=%d", tapes), func(b *testing.B) {
			l, err := layout.Build(layout.Config{
				Tapes: tapes, TapeCapBlocks: 448, HotPercent: 10,
				Replicas: 1, Kind: layout.Horizontal,
			})
			if err != nil {
				b.Fatal(err)
			}
			st := sched.NewState(l, benchCosts(l.TapeCap()))
			st.Mounted, st.Head = 3, 100
			rng := rand.New(rand.NewSource(11))
			saved := make([]*sched.Request, 3)
			for i := range saved {
				saved[i] = &sched.Request{ID: int64(i), Block: layout.BlockID(rng.Intn(l.NumBlocks()))}
			}
			st.Pending = append(st.Pending, saved...)
			e := NewEnvelope(MaxBandwidth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sweep, ok := e.Reschedule(st)
				if !ok {
					b.Fatal("reschedule failed")
				}
				st.ReleaseSweep(sweep)
				st.Pending = append(st.Pending[:0], saved...)
			}
		})
	}
}

// BenchmarkEnvelopeRescheduleFaultHooks is the fault-free hot path with
// the fault-model hooks armed: a non-nil all-healthy Down mask and an
// empty DeadCopy table. Its gate is that this stays within 5% of the
// plain BenchmarkEnvelopeReschedule cases — fault awareness must be free
// when nothing faults.
func BenchmarkEnvelopeRescheduleFaultHooks(b *testing.B) {
	cases := []struct {
		name string
		q    int
		nr   int
	}{
		{"q=60", 60, 4},
		{"q=140", 140, 4},
		{"repl=9", 60, 9},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st, saved := benchEnvelopeState(b, tc.q, tc.nr)
			st.Down = make([]bool, st.Layout.Tapes())
			dead := layout.NewPosSet(st.Layout.Tapes(), st.Layout.TapeCap())
			st.DeadCopy = &dead
			e := NewEnvelope(MaxBandwidth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sweep, ok := e.Reschedule(st)
				if !ok {
					b.Fatal("reschedule failed")
				}
				st.ReleaseSweep(sweep)
				st.Pending = append(st.Pending[:0], saved...)
			}
		})
	}
}

// BenchmarkEnvelopeRescheduleWithAging measures the overload extension's
// cost at the major reschedule: requests carry arrivals and deadlines and
// the aged tape-selection window is active. The "w=0" case is the PR's perf
// gate -- with the weight at zero the aged code must not run at all, so it
// stays within noise of the plain BenchmarkEnvelopeReschedule cases.
func BenchmarkEnvelopeRescheduleWithAging(b *testing.B) {
	cases := []struct {
		name   string
		q      int
		nr     int
		weight float64
	}{
		{"w=0/q=140", 140, 4, 0},
		{"w=1/q=140", 140, 4, 1},
		{"w=1/repl=9", 60, 9, 1},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			st, saved := benchEnvelopeState(b, tc.q, tc.nr)
			rng := rand.New(rand.NewSource(17))
			for i, r := range saved {
				r.Arrival = float64(i) * 10
				if i%2 == 0 {
					r.Deadline = r.Arrival + 500 + rng.Float64()*5000
				}
			}
			st.Now = float64(len(saved)) * 10
			st.AgeWeight = tc.weight
			e := NewEnvelope(MaxBandwidth)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, sweep, ok := e.Reschedule(st)
				if !ok {
					b.Fatal("reschedule failed")
				}
				st.ReleaseSweep(sweep)
				st.Pending = append(st.Pending[:0], saved...)
			}
		})
	}
}

// BenchmarkEnvelopeOnArrival offers one arrival per iteration to a mounted
// sweep. Each iteration leaves the state as it found it -- an accepted
// arrival leaves the sweep again, a rejected one is dropped, and the
// envelope is restored -- so the cost of an op does not grow with b.N.
func BenchmarkEnvelopeOnArrival(b *testing.B) {
	st, _ := benchEnvelopeState(b, 60, 9)
	e := NewEnvelope(MaxBandwidth)
	_, sweep, ok := e.Reschedule(st)
	if !ok {
		b.Fatal("setup failed")
	}
	st.Active = sweep
	env := slices.Clone(e.env)
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &sched.Request{
			ID:    int64(1000 + i),
			Block: layout.BlockID(rng.Intn(st.Layout.NumBlocks())),
		}
		if e.OnArrival(st, r) {
			st.Active.Remove(r)
		}
		copy(e.env, env)
	}
}
