package trace

import (
	"bytes"
	"strings"
	"testing"

	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// runWithRecorder simulates a short closed run recording all events.
func runWithRecorder(t *testing.T, buf *bytes.Buffer) *sim.Result {
	t.Helper()
	rec := NewRecorder(buf)
	res, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
		HotPercent: 10, ReadHotPercent: 40,
		QueueLength: 40,
		Scheduler:   sched.NewDynamic(sched.MaxBandwidth),
		Horizon:     80_000, Seed: 3,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("nothing recorded")
	}
	return res
}

func TestRecordReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	res := runWithRecorder(t, &buf)
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(recs)
	completes, reads, switches := s.Count[sim.EventComplete], s.Count[sim.EventRead], s.Count[sim.EventSwitch]
	if completes != res.TotalCompleted {
		t.Errorf("trace completions %d != result %d", completes, res.TotalCompleted)
	}
	if reads != res.TotalCompleted {
		t.Errorf("trace reads %d != completions %d", reads, res.TotalCompleted)
	}
	// The engine counts post-warmup switches only, so the trace (which sees
	// all of them) must report at least as many.
	if switches < res.TapeSwitches {
		t.Errorf("trace switches %d < result %d", switches, res.TapeSwitches)
	}
	if s.Span <= 0 || s.Span > 81_000 {
		t.Errorf("span = %v", s.Span)
	}
	if s.MeanSweepLen <= 1 {
		t.Errorf("mean sweep %v, expected batching well above 1", s.MeanSweepLen)
	}
	if s.MeanSwitchGap <= 0 {
		t.Error("no switch gap measured")
	}
	if s.BusiestTape < 0 || s.BusiestTapeFrac <= 0 {
		t.Error("busiest tape not identified")
	}
}

func TestSummaryFormat(t *testing.T) {
	var buf bytes.Buffer
	runWithRecorder(t, &buf)
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	Summarize(recs).Format(&out)
	text := out.String()
	for _, want := range []string{"events", "reads", "tape switches", "mean sweep", "completions", "busiest tape"} {
		if !strings.Contains(text, want) {
			t.Errorf("summary missing %q:\n%s", want, text)
		}
	}
}

// The on-disk format is a contract: field names must stay stable so traces
// recorded by one version remain readable by the next.
func TestRecordWireFormat(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	rec.Observe(sim.Event{Kind: sim.EventRead, Time: 12.5, Tape: 3, Pos: 7, Seconds: 40.25, Request: 99})
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `{"kind":"read","t":12.5,"tape":3,"pos":7,"sec":40.25,"req":99}` + "\n"
	if got := buf.String(); got != want {
		t.Errorf("wire format drifted:\n got %q\nwant %q", got, want)
	}
	// req is omitted when zero.
	buf.Reset()
	rec = NewRecorder(&buf)
	rec.Observe(sim.Event{Kind: sim.EventSwitch, Time: 1, Tape: 2, Pos: -1, Seconds: 81})
	rec.Flush()
	if got := buf.String(); strings.Contains(got, "req") {
		t.Errorf("zero request id serialized: %q", got)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"kind\":\"read\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Events != 0 || s.BusiestTape != -1 {
		t.Errorf("empty summary: %+v", s)
	}
	var out bytes.Buffer
	s.Format(&out) // must not panic
}

func TestRecorderPropagatesWriteErrors(t *testing.T) {
	rec := NewRecorder(failingWriter{})
	for i := 0; i < 10000; i++ { // exceed the bufio buffer to force a write
		rec.Observe(sim.Event{Kind: sim.EventRead, Time: float64(i)})
	}
	if rec.Flush() == nil {
		t.Error("write error not surfaced")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errFail
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "synthetic write failure" }

// TestOutsideInput feeds Summarize and Verify a record of a kind no event
// has and a read at tape -1: a trace file is outside input, so neither may
// panic. The unknown record counts in Events only, the read lands in no
// ReadsPerTape entry, and Verify skips the unknown record but refuses the
// read.
func TestOutsideInput(t *testing.T) {
	recs := []Record{
		{Kind: "defragment", Time: 1, Tape: 2, Pos: 3, Seconds: 4},
		{Kind: "read", Time: 2, Tape: -1, Pos: 0, Seconds: 5, Request: 1},
	}
	s := Summarize(recs)
	var want sim.Tally
	want.Add(sim.Event{Kind: sim.EventRead, Seconds: 5}, true)
	if s.Events != 2 || s.Tally != want {
		t.Errorf("Summarize counts %d events and tallies %+v, want 2 events and only the read", s.Events, s.Tally)
	}
	if len(s.ReadsPerTape) != 0 || s.BusiestTape != -1 {
		t.Errorf("a read at tape -1 landed in ReadsPerTape %v (busiest %d)", s.ReadsPerTape, s.BusiestTape)
	}
	var out bytes.Buffer
	s.Format(&out)
	rep, err := Verify(recs[:1], tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil || rep.Operations != 0 {
		t.Errorf("Verify of an unknown record: %v, %+v", err, rep)
	}
	if _, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("Verify replayed a read at tape -1")
	}
}
