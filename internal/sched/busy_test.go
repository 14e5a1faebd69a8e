package sched_test

import (
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

// TestAgingFallsBackWhenUrgentTapeBusy: when every tape in the urgency
// window is busy on another drive, aging must not idle this drive while a
// free tape has work. In each case the most urgent request sits on busy
// tape 1 only, seconds from its deadline, and the oldest request sits on a
// free tape: alone on tape 2, where every static, dynamic and envelope
// scheduler serves it, or replicated on busy tape 1 and free tape 3, where
// the oldest-request policies must not keep tape 1 for holding the oldest
// request too. The envelope sits out the replicated case: its upper
// envelope, built without regard to busy tapes, serves request 1 through
// tape 1 and leaves tape 3 with nothing in reach.
func TestAgingFallsBackWhenUrgentTapeBusy(t *testing.T) {
	var scheds []sched.Scheduler
	for _, p := range []sched.Policy{sched.RoundRobin, sched.MaxRequests, sched.MaxBandwidth,
		sched.OldestMaxRequests, sched.OldestMaxBandwidth} {
		scheds = append(scheds, sched.NewStatic(p), sched.NewDynamic(p))
	}
	staticDynamic := scheds
	for _, v := range []core.Variant{core.OldestRequest, core.MaxRequests, core.MaxBandwidth} {
		scheds = append(scheds, core.NewEnvelope(v))
	}
	cases := []struct {
		name   string
		oldest []layout.Replica
		scheds []sched.Scheduler
		want   int
	}{
		{"oldest on free tape", []layout.Replica{{Tape: 2, Pos: 5}}, scheds, 2},
		{"oldest on busy and free tapes", []layout.Replica{{Tape: 1, Pos: 9}, {Tape: 3, Pos: 5}}, staticDynamic, 3},
	}
	for _, c := range cases {
		l, err := layout.NewManual(4, 20, 0, [][]layout.Replica{c.oldest, {{Tape: 1, Pos: 5}}})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range c.scheds {
			st := sched.NewState(l, &sched.CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16})
			st.Busy = []bool{false, true, false, false}
			st.Now, st.AgeWeight = 1000, 1000
			st.Pending = []*sched.Request{
				{ID: 1, Block: 0, Arrival: 990},
				{ID: 2, Block: 1, Arrival: 999, Deadline: 1000.001},
			}
			tape, sweep, ok := s.Reschedule(st)
			if !ok || tape != c.want {
				t.Errorf("%s, %s: chose tape %d (ok=%v), want the free tape %d", c.name, s.Name(), tape, ok, c.want)
				continue
			}
			if sweep.Len() != 1 || sweep.Requests()[0].ID != 1 {
				t.Errorf("%s, %s: sweep %v, want request 1 alone", c.name, s.Name(), sweep.Requests())
			}
		}
	}
}
