package tapejuke

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/trace"
)

// TestLedgerMatchesTrace cross-checks the live Result against the trace of
// the same run's event stream, over every single-library configuration of
// the digest matrix. A copy of the Result, re-charged from the trace's
// records tallied in issue order under the run's warm-up, must equal it in
// every field, floats by their bits; the trace summary must count every
// kind as that tally does. The drive-time figures no tally defines are
// checked against the seconds their events carry.
func TestLedgerMatchesTrace(t *testing.T) {
	for _, r := range runMatrix(t) {
		if r.res == nil {
			continue
		}
		res, tl := r.res, &r.tally
		recharged := *res
		tl.Charge(&recharged)
		live, again := reflect.ValueOf(*res), reflect.ValueOf(recharged)
		for i := 0; i < live.NumField(); i++ {
			if digestValue(live.Field(i).Interface()) != digestValue(again.Field(i).Interface()) {
				t.Errorf("%s: %s = %v, the trace's tally charges %v", r.name, live.Type().Field(i).Name,
					live.Field(i).Interface(), again.Field(i).Interface())
			}
		}
		if r.sum.Count != tl.Count {
			t.Errorf("%s: the trace summary counts %v per kind, the issue-order tally %v", r.name, r.sum.Count, tl.Count)
		}
		if w := tl.Seconds[sim.EventWriteFlush]; res.WriteSeconds != w {
			t.Errorf("%s: WriteSeconds = %v, the trace's write flushes sum to %v in issue order",
				r.name, res.WriteSeconds, w)
		}
		if want := float64(tl.Count[sim.EventScrubRead]) * r.cfg.BlockMB; res.ScrubbedMB != want {
			t.Errorf("%s: ScrubbedMB = %v, the trace has %d scrub reads (%v MB)",
				r.name, res.ScrubbedMB, tl.Count[sim.EventScrubRead], want)
		}
		if got, want := res.ReadSeconds+res.LocateSeconds, tl.Seconds[sim.EventRead]; !relClose(got, want, 1e-9) {
			t.Errorf("%s: ReadSeconds+LocateSeconds = %v, the trace sums %v", r.name, got, want)
		}
	}
}

// issueTally tallies a run's records in the order the operations were
// issued, which is the order the kernel tallies them in, each after
// warm-up when it ended after c's warm-up. The trace emits an operation
// when it completes, so with several drives a long switch can be issued
// before a shorter one yet emitted after it, and a float sum can then
// differ in its last bit. An operation was issued at its completion time
// less its seconds; equal issue times keep emission order.
func issueTally(recs []trace.Record, c Config) sim.Tally {
	c = c.WithDefaults()
	warmupEnd := c.HorizonSec * c.WarmupFrac
	ops := slices.Clone(recs)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].Time-ops[i].Seconds < ops[j].Time-ops[j].Seconds })
	var tl sim.Tally
	for _, r := range ops {
		ev := sim.Event{Kind: sim.ParseEventKind(r.Kind), Time: r.Time, Seconds: r.Seconds}
		tl.Add(ev, ev.Time > warmupEnd)
	}
	return tl
}

// replayTrace runs trace.Verify over a run's records on the run's own
// geometry and returns an error unless every operation replays within a
// microsecond.
func replayTrace(c Config, recs []trace.Record) error {
	prof := tapemodel.PositionerByName(c.DriveProfile)
	if prof == nil {
		return fmt.Errorf("unknown drive profile %q", c.DriveProfile)
	}
	rep, err := trace.Verify(recs, prof, c.BlockMB, c.Tapes, int(c.TapeCapMB/c.BlockMB), 1e-6)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("%d of %d operations disagree: %s", rep.Mismatches, rep.Operations, rep.First)
	}
	return nil
}

// TestMatrixReplays replays every single-drive run of the digest matrix
// through trace.Verify: every switch and every head access -- user reads
// and failed reads, repair reads and writes, scrub reads, delta writes --
// must recompute to its recorded seconds on the independent jukebox deck.
// Multi-drive runs are left out until events carry a drive index.
func TestMatrixReplays(t *testing.T) {
	n := 0
	for _, r := range runMatrix(t) {
		if r.res == nil || r.cfg.Drives != 1 {
			continue
		}
		n++
		if r.replay != nil {
			t.Errorf("%s: %v", r.name, r.replay)
		}
	}
	if n == 0 {
		t.Fatal("the matrix has no single-drive run")
	}
}

// relClose reports whether a and b agree within tol relative to the larger.
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestDriveTimeConservation checks that a single drive's time buckets
// cover the whole run: every simulated second is switching, locating,
// reading, idle, writing, failing, repairing, scrubbing, or down. With
// several drives IdleSeconds counts only the time every drive is idle,
// so the identity holds for single-drive runs only.
func TestDriveTimeConservation(t *testing.T) {
	for _, r := range runMatrix(t) {
		if r.res == nil || r.cfg.Drives != 1 {
			continue
		}
		res := r.res
		sum := res.SwitchSeconds + res.LocateSeconds + res.ReadSeconds + res.IdleSeconds +
			res.WriteSeconds + res.FaultSeconds + res.RepairSeconds + res.ScrubSeconds +
			res.DriveRepairSeconds
		if !relClose(sum, res.SimSeconds, 1e-9) {
			t.Errorf("%s: drive-time buckets sum to %.3f s over a %.3f s run (%.3f s unaccounted)",
				r.name, sum, res.SimSeconds, res.SimSeconds-sum)
		}
	}
}
