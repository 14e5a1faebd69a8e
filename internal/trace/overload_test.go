package trace

import (
	"bytes"
	"testing"

	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// overloadTrace records a closed run with tight deadlines so the stream
// contains expire events.
func overloadTrace(t *testing.T) ([]Record, *sim.Result) {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	res, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
		HotPercent: 10, ReadHotPercent: 40,
		QueueLength: 40,
		Scheduler:   sched.NewDynamic(sched.MaxBandwidth),
		Horizon:     80_000, Seed: 3,
		Deadlines: sim.DeadlineConfig{HotTTL: 1_200, ColdTTL: 1_200},
		Observer:  rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

func TestSummarizeCountsOverloadEvents(t *testing.T) {
	recs, res := overloadTrace(t)
	s := Summarize(recs)
	expires := s.Count[sim.EventExpire]
	if expires == 0 {
		t.Fatal("trace of a deadlined run contains no expire records")
	}
	if expires != res.Expired {
		t.Errorf("summary counts %d expiries, result reports %d", expires, res.Expired)
	}
	var out bytes.Buffer
	s.Format(&out)
	if !bytes.Contains(out.Bytes(), []byte("overload")) {
		t.Errorf("formatted summary missing the overload line:\n%s", out.String())
	}
}

func TestVerifyAcceptsOverloadTrace(t *testing.T) {
	recs, _ := overloadTrace(t)
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("clean overload trace failed verification: %+v", rep)
	}
}

// TestVerifyRejectsResurrection: a trace that serves or re-cancels a
// request after its expire/shed record has been altered.
func TestVerifyRejectsResurrection(t *testing.T) {
	recs, _ := overloadTrace(t)
	var expired int64
	idx := -1
	for i, r := range recs {
		if r.Kind == "expire" {
			expired, idx = r.Request, i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no expire record")
	}

	// A read of the cancelled request after its expiry.
	tampered := append(append([]Record{}, recs[:idx+1]...), Record{
		Kind: "read", Time: recs[idx].Time + 1, Tape: 0, Pos: 0, Seconds: 1, Request: expired,
	})
	if _, err := Verify(tampered, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("read of an expired request verified")
	}

	// A second cancellation of the same request.
	tampered = append(append([]Record{}, recs[:idx+1]...), Record{
		Kind: "shed", Time: recs[idx].Time + 1, Tape: -1, Pos: -1, Request: expired,
	})
	if _, err := Verify(tampered, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("double cancellation verified")
	}

	// Expiring a request that already completed.
	var completed int64
	cidx := -1
	for i, r := range recs {
		if r.Kind == "complete" {
			completed, cidx = r.Request, i
			break
		}
	}
	if cidx < 0 {
		t.Fatal("no complete record")
	}
	tampered = append(append([]Record{}, recs[:cidx+1]...), Record{
		Kind: "expire", Time: recs[cidx].Time + 1, Tape: -1, Pos: -1, Request: completed,
	})
	if _, err := Verify(tampered, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("expiry of a completed request verified")
	}
}
