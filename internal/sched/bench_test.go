package sched

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// benchState builds a pending list of n requests over the paper's jukebox
// with the given replication.
func benchState(b *testing.B, n, nr int) *State {
	b.Helper()
	kind := layout.Horizontal
	sp := 0.0
	if nr > 0 {
		kind = layout.Vertical
		sp = 1
	}
	l, err := layout.Build(layout.Config{
		Tapes: 10, TapeCapBlocks: 448, HotPercent: 10,
		Replicas: nr, Kind: kind, StartPos: sp,
	})
	if err != nil {
		b.Fatal(err)
	}
	st := NewState(l, &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16})
	st.Mounted, st.Head = 3, 100
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		st.Pending = append(st.Pending, &Request{
			ID: int64(i), Block: layout.BlockID(rng.Intn(l.NumBlocks())),
		})
	}
	return st
}

// resetPending restores a pending list consumed by a Reschedule call.
func resetPending(st *State, saved []*Request) {
	st.Pending = st.Pending[:0]
	st.Pending = append(st.Pending, saved...)
}

func benchReschedule(b *testing.B, s Scheduler, n, nr int) {
	st := benchState(b, n, nr)
	saved := append([]*Request(nil), st.Pending...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, ok := s.Reschedule(st)
		if !ok {
			b.Fatal("reschedule failed")
		}
		resetPending(st, saved)
	}
}

func BenchmarkRescheduleStaticMaxRequests140(b *testing.B) {
	benchReschedule(b, NewStatic(MaxRequests), 140, 0)
}

func BenchmarkRescheduleStaticMaxBandwidth140(b *testing.B) {
	benchReschedule(b, NewStatic(MaxBandwidth), 140, 0)
}

func BenchmarkRescheduleDynamicMaxBandwidth140(b *testing.B) {
	benchReschedule(b, NewDynamic(MaxBandwidth), 140, 0)
}

func BenchmarkRescheduleFIFO(b *testing.B) {
	benchReschedule(b, NewFIFO(), 140, 0)
}

func BenchmarkSweepBuild140(b *testing.B) {
	st := benchState(b, 140, 0)
	var s Selector
	s.pick(st, MaxRequests, nil)
	reqs := s.sets[3]
	for i, r := range reqs {
		r.Target = layout.Replica{Tape: 3, Pos: s.pos[3][i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSweep(reqs, 100)
	}
}

func BenchmarkSweepInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = &Request{ID: int64(i), Target: layout.Replica{Tape: 0, Pos: rng.Intn(448)}}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewSweep(reqs[:32], 0)
		for _, r := range reqs[32:] {
			s.Insert(r, 0)
		}
	}
}

func BenchmarkEffectiveBandwidth(b *testing.B) {
	st := benchState(b, 140, 0)
	var s Selector
	s.pick(st, MaxRequests, nil)
	order := sweepOrderInts(s.pos[3], 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Costs.EffectiveBandwidth(3, 100, 3, 100, order)
	}
}
