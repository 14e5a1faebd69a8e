package sched

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
	"tapejuke/internal/tapemodel"
)

// Static and dynamic algorithms share the same major rescheduler: with an
// identical pending list they must pick the same tape and extract the same
// requests. They differ only mid-sweep.
func TestStaticDynamicRescheduleAgree(t *testing.T) {
	for _, p := range []Policy{RoundRobin, MaxRequests, MaxBandwidth, OldestMaxRequests, OldestMaxBandwidth} {
		build := func() *State {
			st := fixture(t, 0, layout.Horizontal)
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 12; i++ {
				addReq(st, int64(i), layout.BlockID(rng.Intn(st.Layout.NumBlocks())), float64(i))
			}
			return st
		}
		st1, st2 := build(), build()
		t1, s1, ok1 := NewStatic(p).Reschedule(st1)
		t2, s2, ok2 := NewDynamic(p).Reschedule(st2)
		if ok1 != ok2 || t1 != t2 {
			t.Fatalf("%v: static chose (%d,%v), dynamic (%d,%v)", p, t1, ok1, t2, ok2)
		}
		if s1.Len() != s2.Len() {
			t.Fatalf("%v: sweep lengths differ: %d vs %d", p, s1.Len(), s2.Len())
		}
		for !s1.Empty() {
			a, b := s1.Pop(), s2.Pop()
			if a.ID != b.ID || a.Target != b.Target {
				t.Fatalf("%v: sweeps diverge at %v vs %v", p, a, b)
			}
		}
	}
}

// The selector puts a replicated request in the set of every tape holding
// a readable copy, and a reach bounds each tape's set.
func TestSelectorSetsWithReplication(t *testing.T) {
	st := fixture(t, 3, layout.Horizontal) // 4 tapes, hot blocks on all 4
	addReq(st, 1, 0, 0)                    // hot, fully replicated
	cold := coldOn(t, st, 2)
	addReq(st, 2, cold, 1) // cold, single copy
	var s Selector
	if _, ok := s.pick(st, MaxRequests, nil); !ok {
		t.Fatal("no selection")
	}
	total := 0
	for _, set := range s.sets {
		total += len(set)
	}
	if total != 4+1 {
		t.Errorf("total set size = %d, want 5 (4 copies + 1 cold)", total)
	}
	if len(s.sets[2]) != 2 {
		t.Errorf("tape 2 set size = %d, want 2", len(s.sets[2]))
	}

	// A reach ending just past the cold copy's position leaves tape 2 the
	// only tape with work once the hot copies are out of reach.
	pos := st.Layout.Replicas(cold)[0].Pos
	reach := make([]int, 4)
	reach[2] = pos + 1
	tape, sweep, ok := s.Reschedule(st, MaxRequests, reach)
	if !ok || tape != 2 || sweep.Len() != 1 || sweep.Peek().ID != 2 {
		t.Fatalf("reach-bounded reschedule = tape %d ok %v, want tape 2 serving request 2", tape, ok)
	}
	if got := sweep.Peek().Target; got.Tape != 2 || got.Pos != pos {
		t.Errorf("target = %+v, want tape 2 position %d", got, pos)
	}
	if len(st.Pending) != 1 || st.Pending[0].ID != 1 {
		t.Errorf("pending should keep only the out-of-reach hot request")
	}
}

func TestJukeboxOrderAndStartHead(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	st.Mounted, st.Head = 2, 7

	var order []int
	st.JukeboxOrder(func(tp int) bool {
		order = append(order, tp)
		return true
	})
	want := []int{2, 3, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("jukebox order = %v, want %v", order, want)
		}
	}
	// Early termination.
	order = order[:0]
	st.JukeboxOrder(func(tp int) bool {
		order = append(order, tp)
		return len(order) < 2
	})
	if len(order) != 2 {
		t.Errorf("early stop visited %d tapes", len(order))
	}

	if st.StartHead(2) != 7 {
		t.Errorf("StartHead(mounted) = %d, want 7", st.StartHead(2))
	}
	if st.StartHead(1) != 0 {
		t.Errorf("StartHead(other) = %d, want 0", st.StartHead(1))
	}

	// Empty drive starts the order at tape 0.
	st.Mounted = -1
	order = order[:0]
	st.JukeboxOrder(func(tp int) bool {
		order = append(order, tp)
		return false
	})
	if order[0] != 0 {
		t.Errorf("empty-drive order starts at %d, want 0", order[0])
	}
}

// A full sweep's execution cost, computed operation by operation against
// hand-derived values from the published model.
func TestSweepExecutionGolden(t *testing.T) {
	c := &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16}
	// Head at block 5; serve blocks 10, 12 (forward) then 3 (reverse).
	// locate 5->10: 80 MB long:  14.342 + 0.028*80  = 16.582
	// read fwd 16 MB:            0.38 + 1.77*16     = 28.70
	// locate 11->12: 16 MB short: 4.834 + 0.378*16  = 10.882
	// read fwd:                                      28.70
	// locate 13->3: 160 MB rev:  13.74 + 0.0286*160 = 18.316
	// read rev 16 MB:            1.77*16            = 28.32
	want := 16.582 + 28.7 + 10.882 + 28.7 + 18.316 + 28.32
	got, final := c.ExecTime(5, []int{10, 12, 3})
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("ExecTime = %.6f, want %.6f", got, want)
	}
	if final != 4 {
		t.Errorf("final head = %d, want 4", final)
	}
}

// Max-bandwidth must weigh positions, not just counts: with equal request
// counts, the tape whose blocks sit near the beginning (short locates)
// wins over the tape whose blocks sit near the end.
func TestMaxBandwidthPrefersCloserData(t *testing.T) {
	l, err := layout.NewManual(2, 448, 0, [][]layout.Replica{
		{{Tape: 0, Pos: 2}},
		{{Tape: 0, Pos: 5}},
		{{Tape: 1, Pos: 440}},
		{{Tape: 1, Pos: 445}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := NewState(l, &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16})
	for i := 0; i < 4; i++ {
		st.Pending = append(st.Pending, &Request{ID: int64(i), Block: layout.BlockID(i)})
	}
	tape, ok := selectTape(st, MaxBandwidth)
	if !ok || tape != 0 {
		t.Errorf("max-bandwidth chose tape %d, want 0 (near data)", tape)
	}
	// Max-requests is blind to position and ties to jukebox order, which
	// also lands on tape 0 here -- so flip the counts to separate them:
	// tape 1 has more requests but far data.
	st.Pending = append(st.Pending, &Request{ID: 5, Block: 2})
	if tape, _ := selectTape(st, MaxRequests); tape != 1 {
		t.Errorf("max-requests chose tape %d, want 1 (count 3)", tape)
	}
	if tape, _ := selectTape(st, MaxBandwidth); tape != 0 {
		t.Errorf("max-bandwidth chose tape %d, want 0 despite fewer requests", tape)
	}
}

func TestBusyTapeExclusion(t *testing.T) {
	st := fixture(t, 0, layout.Horizontal)
	addReq(st, 1, coldOn(t, st, 1), 0)
	addReq(st, 2, coldOn(t, st, 2), 1)
	st.Busy = make([]bool, 4)
	st.Busy[1] = true

	for _, p := range []Policy{RoundRobin, MaxRequests, MaxBandwidth} {
		tape, ok := selectTape(st, p)
		if !ok || tape != 2 {
			t.Errorf("%v: chose tape %d (ok=%v), want 2 (tape 1 busy)", p, tape, ok)
		}
	}
	// FIFO skips a busy tape too: oldest request is on busy tape 1, so it
	// cannot be served; FIFO reports failure rather than violating the
	// exclusion (the engine retries later).
	f := NewFIFO()
	if tape, _, ok := f.Reschedule(st); ok && tape == 1 {
		t.Error("FIFO selected the busy tape")
	}

	// All candidate tapes busy: selection fails.
	st.Busy[2] = true
	if _, ok := selectTape(st, MaxRequests); ok {
		t.Error("selection succeeded with every candidate busy")
	}
}
