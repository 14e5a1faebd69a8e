package trace

import (
	"bytes"
	"testing"

	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

func recordedTrace(t *testing.T) []Record {
	t.Helper()
	var buf bytes.Buffer
	runWithRecorder(t, &buf)
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestVerifyCleanTrace(t *testing.T) {
	recs := recordedTrace(t)
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("clean trace failed verification: %+v", rep)
	}
	if rep.Operations == 0 {
		t.Error("nothing replayed")
	}
}

func TestVerifyDetectsTampering(t *testing.T) {
	recs := recordedTrace(t)
	// Inflate one read's duration, as a corrupted or falsified log would.
	for i := range recs {
		if recs[i].Kind == "read" {
			recs[i].Seconds += 5
			break
		}
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("tampered trace verified")
	}
	if rep.Mismatches != 1 || rep.MaxError < 4.9 {
		t.Errorf("report: %+v", rep)
	}
	if rep.First == "" {
		t.Error("first mismatch not described")
	}
}

func TestVerifyDetectsWrongModel(t *testing.T) {
	recs := recordedTrace(t)
	// Replaying an EXB trace against the fast drive must disagree widely.
	rep, err := Verify(recs, tapemodel.FastHelical(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("wrong-model replay verified")
	}
}

// A real two-drive trace interleaves reads from tapes mounted in different
// drives; single-deck replay must reject it rather than misverify.
func TestVerifyRejectsMultiDriveTrace(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	_, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
		HotPercent: 10, ReadHotPercent: 40,
		QueueLength: 40,
		Scheduler:   sched.NewDynamic(sched.MaxBandwidth),
		Drives:      2,
		SchedulerFactory: func() sched.Scheduler {
			return sched.NewDynamic(sched.MaxBandwidth)
		},
		Horizon: 60_000, Seed: 3,
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("two-drive trace verified on one deck")
	}
}

// writeTrace records a single-drive open run with delta writes under the
// piggyback+idle policy and a forced drain past 40 buffered blocks.
func writeTrace(t *testing.T) []Record {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	_, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
		HotPercent: 10, ReadHotPercent: 40,
		QueueLength: 0, MeanInterarrival: 150,
		Scheduler: sched.NewDynamic(sched.MaxBandwidth),
		Horizon:   300_000, Seed: 12,
		WriteMeanInterarrival: 400, WritePolicy: sim.WritePiggybackAndIdle,
		WriteFlushThreshold: 40,
		Observer:            rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestVerifyRejectsUnreplayable(t *testing.T) {
	verify := func(recs []Record) (*VerifyReport, error) {
		return Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	}
	// A single-drive write trace replays: every delta block is a head
	// access at its log position, and flush switches are switches.
	recs := writeTrace(t)
	flush := -1
	for i, r := range recs {
		if r.Kind == "write-flush" {
			flush = i
			break
		}
	}
	if flush < 0 {
		t.Fatal("the write run flushed nothing")
	}
	if rep, err := verify(recs); err != nil || !rep.OK() {
		t.Fatalf("clean write trace failed verification: %+v, %v", rep, err)
	}
	// Altered seconds on a write flush are a mismatch.
	tampered := append([]Record{}, recs...)
	tampered[flush].Seconds += 2
	if rep, err := verify(tampered); err != nil || rep.Mismatches != 1 {
		t.Errorf("write flush with altered seconds: %+v, %v", rep, err)
	}
	// A write flush on a tape the drive does not hold is rejected.
	tampered = append([]Record{}, recs...)
	tampered[flush].Tape = (tampered[flush].Tape + 1) % 10
	if _, err := verify(tampered); err == nil {
		t.Error("write flush on an unmounted tape accepted")
	}
	// A read on an unmounted tape (as interleaved multi-drive traces
	// produce) is rejected rather than misverified.
	bad := []Record{
		{Kind: "switch", Tape: 1, Seconds: 62},
		{Kind: "read", Tape: 5, Pos: 3, Seconds: 40},
	}
	if _, err := Verify(bad, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("cross-tape read accepted")
	}
	// Out-of-range positions surface as errors.
	bad = []Record{
		{Kind: "switch", Tape: 1, Seconds: 62},
		{Kind: "read", Tape: 1, Pos: 9999, Seconds: 40},
	}
	if _, err := Verify(bad, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6); err == nil {
		t.Error("out-of-range read accepted")
	}
}

// faultTrace records a single-drive run with every fault class enabled.
func faultTrace(t *testing.T) []Record {
	t.Helper()
	var buf bytes.Buffer
	rec := NewRecorder(&buf)
	_, err := sim.Run(sim.Config{
		BlockMB: 16, TapeCapMB: 7168, Tapes: 10,
		HotPercent: 100, ReadHotPercent: 100,
		DataBlocks: 1000, Replicas: 1,
		QueueLength: 40,
		Scheduler:   sched.NewDynamic(sched.MaxBandwidth),
		Horizon:     300_000, Seed: 1,
		Faults: faults.Config{
			ReadTransientProb: 0.05,
			SwitchFailProb:    0.1,
			TapeMTBFSec:       400_000,
			DriveMTBFSec:      150_000,
			BadBlocksPerTape:  1,
		},
		Observer: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec.Flush()
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// A fault-model trace replays: failed read attempts move the head through
// the target like successful reads, failed loads cost a switch without
// moving the deck, and a load-discovered tape death empties the drive.
func TestVerifyFaultTrace(t *testing.T) {
	recs := faultTrace(t)
	kinds := map[string]int{}
	for _, r := range recs {
		kinds[r.Kind]++
	}
	if kinds["fault"] == 0 || kinds["tape-fail"] == 0 {
		t.Fatalf("trace exercised no faults: %v", kinds)
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("fault trace failed verification: %+v", rep)
	}
	if rep.Operations <= kinds["read"] {
		t.Errorf("replayed %d operations; fault attempts (%d) not verified",
			rep.Operations, kinds["fault"])
	}
}

func TestVerifyDetectsTamperedFault(t *testing.T) {
	recs := faultTrace(t)
	for i := range recs {
		if recs[i].Kind == "fault" {
			recs[i].Seconds += 3
			break
		}
	}
	rep, err := Verify(recs, tapemodel.EXB8505XL(), 16, 10, 448, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("tampered fault attempt verified")
	}
}
