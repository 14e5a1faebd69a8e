package main

import (
	"fmt"
	"math"
	"reflect"

	"tapejuke"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/trace"
)

// diffFields compares two values field for field, floats by their bits
// (so NaN equals NaN and -0 differs from 0), and returns the path of the
// first difference, or "" when they are identical.
func diffFields(a, b any) string {
	return diffValue(reflect.ValueOf(a), reflect.ValueOf(b), "")
}

func diffValue(a, b reflect.Value, path string) string {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return path + " (type)"
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + " (nil)"
			}
			return ""
		}
		return diffValue(a.Elem(), b.Elem(), path)
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diffValue(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s (len %d vs %d)", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diffValue(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
				return d
			}
		}
	case reflect.Float32, reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s (%v vs %v)", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Int(), b.Int())
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		if a.Uint() != b.Uint() {
			return fmt.Sprintf("%s (%d vs %d)", path, a.Uint(), b.Uint())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s (%q vs %q)", path, a.String(), b.String())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	default:
		return path + " (unsupported kind " + a.Kind().String() + ")"
	}
	return ""
}

// checkLibResult applies the output checks every single-library run must
// pass: the run is not empty and every request is accounted for.
// Outstanding requests are what the Result's counters leave over; they
// must be non-negative, equal the population of a closed model, and stay
// within an admission bound.
func checkLibResult(c *tapejuke.Config, r *tapejuke.Result) error {
	if r.TotalArrivals == 0 || r.Completed == 0 || r.MeasuredSeconds <= 0 {
		return fmt.Errorf("empty run: %d arrivals, %d measured completions over %v s",
			r.TotalArrivals, r.Completed, r.MeasuredSeconds)
	}
	out := r.TotalArrivals - r.TotalCompleted - r.Expired - r.Shed - r.Unserviceable
	switch {
	case out < 0:
		return fmt.Errorf("conservation: %d arrivals < %d completed + %d expired + %d shed + %d unserviceable",
			r.TotalArrivals, r.TotalCompleted, r.Expired, r.Shed, r.Unserviceable)
	case c.QueueLength > 0 && c.Burst.FlashCount == 0 && out != int64(c.QueueLength):
		return fmt.Errorf("conservation: closed population %d, but %d requests outstanding", c.QueueLength, out)
	case c.Admission.Policy != tapejuke.AdmitNone && out > int64(c.Admission.MaxQueue):
		return fmt.Errorf("conservation: %d requests outstanding past the admission bound %d", out, c.Admission.MaxQueue)
	}
	return nil
}

// checkFarmResult is checkLibResult for a farm: every shard passes the
// single-library checks, the router's counts match what the shards
// admitted, and the farm ledger balances.
func checkFarmResult(fc *tapejuke.FarmConfig, fr *tapejuke.FarmResult) error {
	if len(fr.Shards) != fc.Shards || len(fr.Routed) != fc.Shards {
		return fmt.Errorf("farm: %d shard results and %d routed counts for %d shards",
			len(fr.Shards), len(fr.Routed), fc.Shards)
	}
	var routed int64
	for i, r := range fr.Shards {
		if err := checkLibResult(&fc.Base, r); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		if fr.Routed[i] != r.TotalArrivals+r.Rejected {
			return fmt.Errorf("shard %d: routed %d requests but saw %d arrivals and %d rejections",
				i, fr.Routed[i], r.TotalArrivals, r.Rejected)
		}
		routed += fr.Routed[i]
	}
	if routed != fr.TotalArrivals+fr.Rejected {
		return fmt.Errorf("farm: routed %d requests, %d arrived and %d were rejected", routed, fr.TotalArrivals, fr.Rejected)
	}
	if fr.Outstanding < 0 || fr.TotalArrivals != fr.TotalCompleted+fr.Expired+fr.Shed+fr.Unserviceable+fr.Outstanding {
		return fmt.Errorf("farm conservation: %d arrivals vs %d completed + %d expired + %d shed + %d unserviceable + %d outstanding",
			fr.TotalArrivals, fr.TotalCompleted, fr.Expired, fr.Shed, fr.Unserviceable, fr.Outstanding)
	}
	if fr.Completed == 0 {
		return fmt.Errorf("farm: empty run")
	}
	return nil
}

// recorder is the Observer of the recording pass. It counts every event
// by kind and, when keep is set, keeps the whole stream for trace.Verify.
type recorder struct {
	counts [32]int64
	recs   []trace.Record
	keep   bool
}

func (r *recorder) Observe(ev sim.Event) {
	if int(ev.Kind) < len(r.counts) {
		r.counts[ev.Kind]++
	}
	if r.keep {
		r.recs = append(r.recs, trace.Record{Kind: ev.Kind.String(), Time: ev.Time, Tape: ev.Tape,
			Pos: ev.Pos, Seconds: ev.Seconds, Request: ev.Request})
	}
}

func (r *recorder) total() int64 {
	var n int64
	for _, c := range r.counts {
		n += c
	}
	return n
}

// background counts the drive operations the idle branch and the sweep
// tail issue on their own: delta flushes, repair reads and writes, and
// scrub reads.
func (r *recorder) background() int64 {
	return r.counts[sim.EventWriteFlush] + r.counts[sim.EventRepairRead] +
		r.counts[sim.EventRepairWrite] + r.counts[sim.EventScrubRead]
}

// checkLedger cross-checks the Result's request counters against the
// event stream the same run emitted.
func (r *recorder) checkLedger(res *tapejuke.Result) error {
	pairs := []struct {
		kind sim.EventKind
		want int64
	}{
		{sim.EventComplete, res.TotalCompleted},
		{sim.EventExpire, res.Expired},
		{sim.EventShed, res.Shed},
		{sim.EventReject, res.Rejected},
		{sim.EventUnserviceable, res.Unserviceable},
	}
	for _, p := range pairs {
		if got := r.counts[p.kind]; got != p.want {
			return fmt.Errorf("ledger: %d %s events, Result says %d", got, p.kind, p.want)
		}
	}
	return nil
}

// verifiable reports whether trace.Verify accepts the event stream of a
// run of c: it replays single-drive, write-free streams only.
func verifiable(c *tapejuke.Config) bool {
	return max(c.Drives, 1) == 1 && c.Writes.MeanInterarrivalSec == 0
}

// verify replays the whole recorded stream through trace.Verify on the
// library's geometry; the caller keeps it to the runs verifiable accepts.
func (r *recorder) verify(c *tapejuke.Config) error {
	prof := tapemodel.PositionerByName(c.DriveProfile)
	if prof == nil {
		return fmt.Errorf("verify: unknown drive profile %q", c.DriveProfile)
	}
	rep, err := trace.Verify(r.recs, prof, c.BlockMB, c.Tapes, int(c.TapeCapMB/c.BlockMB), 1e-6)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if rep.Operations == 0 {
		return fmt.Errorf("verify: no reads or switches replayed")
	}
	if !rep.OK() {
		return fmt.Errorf("verify: %d of %d operations disagree with the timing model; first: %s",
			rep.Mismatches, rep.Operations, rep.First)
	}
	return nil
}
