package tapejuke

import (
	"math"
	"sort"
	"testing"

	"tapejuke/internal/trace"
)

// TestLedgerMatchesTrace cross-checks the live Result against the trace
// summary of the same run's event stream, over every single-library
// configuration of the digest matrix: counters against event counts, and
// drive-time buckets against the seconds the events carry.
func TestLedgerMatchesTrace(t *testing.T) {
	for _, r := range runMatrix(t) {
		if r.res == nil {
			continue
		}
		res, s := r.res, r.sum
		counts := []struct {
			name       string
			got, event int64
		}{
			{"TotalCompleted", res.TotalCompleted, s.Completes},
			{"Expired", res.Expired, s.Expires},
			{"Shed", res.Shed, s.Sheds},
			{"Rejected", res.Rejected, s.Rejects},
			{"ReclaimedCopies", res.ReclaimedCopies, s.Reclaims},
			{"EvacuatedCopies", res.EvacuatedCopies, s.Evacuations},
			{"FencedDrives", res.FencedDrives, s.DriveFences},
			{"LatentErrorsFound", res.LatentErrorsFound, s.LatentFinds},
		}
		for _, c := range counts {
			if c.got != c.event {
				t.Errorf("%s: %s = %d, the trace counts %d", r.name, c.name, c.got, c.event)
			}
		}
		if res.IdleSeconds != s.IdleSeconds {
			t.Errorf("%s: IdleSeconds = %v, the trace sums %v", r.name, res.IdleSeconds, s.IdleSeconds)
		}
		// Flush switches are charged but emit no event.
		if r.cfg.Writes.MeanInterarrivalSec == 0 && res.SwitchSeconds != r.switchSec {
			t.Errorf("%s: SwitchSeconds = %v, the trace's switches sum to %v in issue order",
				r.name, res.SwitchSeconds, r.switchSec)
		}
		if want := float64(s.ScrubReads) * r.cfg.BlockMB; res.ScrubbedMB != want {
			t.Errorf("%s: ScrubbedMB = %v, the trace has %d scrub reads (%v MB)", r.name, res.ScrubbedMB, s.ScrubReads, want)
		}
		if got := res.ReadSeconds + res.LocateSeconds; !relClose(got, s.ReadSeconds, 1e-9) {
			t.Errorf("%s: ReadSeconds+LocateSeconds = %v, the trace sums %v", r.name, got, s.ReadSeconds)
		}
	}
}

// issuedSwitchSeconds sums the switch records' seconds in the order the
// switches were issued, which is the order the ledger adds them in. The
// trace emits a switch when it completes, so with several drives a long
// switch can be issued before a shorter one yet emitted after it, and the
// float sum can then differ in its last bit. A switch was issued at its
// completion time less its seconds; equal issue times keep emission order.
func issuedSwitchSeconds(recs []trace.Record) float64 {
	var sw []trace.Record
	for _, r := range recs {
		if r.Kind == "switch" {
			sw = append(sw, r)
		}
	}
	sort.SliceStable(sw, func(i, j int) bool { return sw[i].Time-sw[i].Seconds < sw[j].Time-sw[j].Seconds })
	var sum float64
	for _, r := range sw {
		sum += r.Seconds
	}
	return sum
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
