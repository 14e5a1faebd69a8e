package trace

import (
	"fmt"
	"math"

	"tapejuke/internal/jukebox"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// VerifyReport summarizes a trace replay: every switch and head access
// re-executed against the drive timing model, with recomputed durations
// compared to the recorded ones.
type VerifyReport struct {
	Operations int     // switches, failed loads and head accesses replayed
	Mismatches int     // operations whose recomputed duration disagrees
	MaxError   float64 // largest absolute disagreement in seconds
	First      string  // description of the first mismatch, "" if none
}

// OK reports whether the trace is consistent with the timing model.
func (r *VerifyReport) OK() bool { return r.Mismatches == 0 }

// Verify replays a single-drive trace through a fresh jukebox deck with the
// given geometry and timing model, recomputing the duration of every tape
// switch and head access and comparing it to the recorded value within tol
// seconds. It is an integrity check: a trace that fails either was recorded
// under different parameters or has been altered.
//
// A "switch" mounts its tape; a failed load attempt ("fault" at position
// -1) consumes a switch without moving the deck, so every retry costs the
// same. Every other record with a drive position is a head access, and all
// of them replay through one rule: "read", a failed read ("fault"),
// "repair-read", "repair-write", "scrub-read", and "write-flush" (one delta
// block written to its log position) each locate from the head to their
// position on the mounted tape and transfer one block, leaving the head
// past it. An access on a tape other than the mounted one fails
// verification (multi-drive traces interleave head positions that one deck
// cannot replay), and so does an access on a tape the trace declared
// failed. The kinds add their own preconditions:
//
//   - every access except a write ("repair-write", "write-flush") needs a
//     slot that holds data: a slot emptied by "reclaim" or "evacuate" holds
//     nothing until a repair-write refills it;
//   - a "scrub-read" of a position with a prior "latent-found" fails (the
//     copy is dead; the patrol skips it);
//   - a "repair-write" needs a prior repair-read of the same job (the copy
//     must come from a surviving copy) and completes its job only once, and
//     a repair-read runs once per job (Request carries the job ID).
//
// Metadata records move no head. "tape-fail" on an unmounted tape marks
// the end of a failed load (the drive ends empty), while one on the
// mounted tape leaves the dead tape in the drive. "reclaim" and
// "evacuate" empty their slot; emptying a slot twice by evacuation fails.
// "latent-found" must follow a head access at the same (tape, position)
// (detection without the read that detected it is fabrication), once per
// position. "drive-fence" ends a maintenance spell that began by returning
// the mounted cartridge to the library, so it empties the deck: the next
// mount is an initial load. "expire" and "shed" cancel their request, and
// a later read, fault, or completion referencing a cancelled request fails
// verification (an altered trace cannot resurrect a request it already
// cancelled). Idle, completion, drive-repair, unserviceable, and reject
// records carry no drive geometry and are skipped, as is a record of a kind
// no event has.
func Verify(recs []Record, prof tapemodel.Positioner, blockMB float64, tapes, capBlocks int, tol float64) (*VerifyReport, error) {
	deck, err := jukebox.NewDeck(prof, blockMB, tapes, capBlocks)
	if err != nil {
		return nil, err
	}
	rep := &VerifyReport{}
	note := func(i int, kind string, got, want float64) {
		diff := math.Abs(got - want)
		if diff <= tol {
			return
		}
		rep.Mismatches++
		if diff > rep.MaxError {
			rep.MaxError = diff
		}
		if rep.First == "" {
			rep.First = fmt.Sprintf("record %d (%s): recorded %.6f s, recomputed %.6f s", i, kind, want, got)
		}
	}
	cancelled := make(map[int64]sim.EventKind) // request ID -> how it left the system
	failedTapes := make(map[int]bool)          // tapes the trace declared dead
	repairRead := make(map[int64]bool)         // repair jobs whose source read landed
	repairDone := make(map[int64]bool)         // repair jobs whose copy write landed
	reclaimed := make(map[[2]int]bool)         // (tape, pos) holding no data since reclaim or evacuation
	touched := make(map[[2]int]bool)           // (tape, pos) the head has accessed
	latent := make(map[[2]int]bool)            // (tape, pos) with a latent-found record
	for i, r := range recs {
		k := sim.ParseEventKind(r.Kind)
		if r.Request != 0 {
			switch k {
			case sim.EventExpire, sim.EventShed:
				if why, gone := cancelled[r.Request]; gone {
					return nil, fmt.Errorf("trace: record %d cancels request %d already %s", i, r.Request, why)
				}
				cancelled[r.Request] = k
			case sim.EventRead, sim.EventFault, sim.EventComplete:
				if why, gone := cancelled[r.Request]; gone {
					return nil, fmt.Errorf("trace: record %d (%s) references request %d already %s",
						i, k, r.Request, why)
				}
				if k == sim.EventComplete {
					cancelled[r.Request] = k
				}
			}
		}
		tp := [2]int{r.Tape, r.Pos}
		switch k {
		case sim.EventSwitch:
			got, err := deck.Mount(r.Tape)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d: %w", i, err)
			}
			rep.Operations++
			note(i, k.String(), got, r.Seconds)
		case sim.EventFault, sim.EventRead, sim.EventRepairRead, sim.EventRepairWrite, sim.EventScrubRead, sim.EventWriteFlush:
			if k == sim.EventFault && r.Pos < 0 {
				// Failed load attempt: the mechanics run but the deck state
				// does not change.
				got, err := deck.SwitchCost(r.Tape)
				if err != nil {
					return nil, fmt.Errorf("trace: record %d: %w", i, err)
				}
				rep.Operations++
				note(i, "fault-switch", got, r.Seconds)
				continue
			}
			write := k == sim.EventRepairWrite || k == sim.EventWriteFlush
			switch {
			case deck.Mounted() != r.Tape:
				return nil, fmt.Errorf("trace: record %d (%s) accesses tape %d but tape %d is mounted (multi-drive trace?)",
					i, k, r.Tape, deck.Mounted())
			case failedTapes[r.Tape]:
				return nil, fmt.Errorf("trace: record %d (%s) accesses tape %d after its failure", i, k, r.Tape)
			case reclaimed[tp] && !write:
				return nil, fmt.Errorf("trace: record %d (%s) reads tape %d pos %d, emptied with no copy written since",
					i, k, r.Tape, r.Pos)
			case latent[tp] && k == sim.EventScrubRead:
				return nil, fmt.Errorf("trace: record %d scrub-reads tape %d pos %d, dead since its latent error was found",
					i, r.Tape, r.Pos)
			case k == sim.EventRepairRead && repairRead[r.Request]:
				return nil, fmt.Errorf("trace: record %d repeats the source read of repair job %d", i, r.Request)
			case k == sim.EventRepairWrite && !repairRead[r.Request]:
				return nil, fmt.Errorf("trace: record %d writes repair job %d's copy with no surviving-copy read before it",
					i, r.Request)
			case k == sim.EventRepairWrite && repairDone[r.Request]:
				return nil, fmt.Errorf("trace: record %d completes repair job %d a second time", i, r.Request)
			}
			got, err := deck.ReadBlock(r.Pos)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d: %w", i, err)
			}
			touched[tp] = true
			rep.Operations++
			note(i, k.String(), got, r.Seconds)
			switch k {
			case sim.EventRepairRead:
				repairRead[r.Request] = true
			case sim.EventRepairWrite:
				repairDone[r.Request] = true
				delete(reclaimed, tp)
			}
		case sim.EventTapeFail:
			failedTapes[r.Tape] = true
			if deck.Mounted() != r.Tape {
				// The death was discovered at load: the cartridge never
				// mounted and the drive ends empty. (A death discovered
				// mid-read leaves the dead tape in the drive.)
				deck.Unload()
			}
		case sim.EventReclaim:
			// Metadata-only: no drive motion, but the slot holds no data
			// until a later repair-write refills it.
			reclaimed[tp] = true
		case sim.EventEvacuate:
			// Metadata-only, like a reclaim.
			if reclaimed[tp] {
				return nil, fmt.Errorf("trace: record %d evacuates tape %d pos %d, already emptied", i, r.Tape, r.Pos)
			}
			reclaimed[tp] = true
		case sim.EventLatentFound:
			// Metadata-only, but a detection needs a detector: some head
			// access at this position must precede it.
			if !touched[tp] {
				return nil, fmt.Errorf("trace: record %d finds a latent error at tape %d pos %d never accessed before it",
					i, r.Tape, r.Pos)
			}
			if latent[tp] {
				return nil, fmt.Errorf("trace: record %d finds the latent error at tape %d pos %d a second time",
					i, r.Tape, r.Pos)
			}
			latent[tp] = true
		case sim.EventDriveFence:
			deck.Unload()
		}
	}
	return rep, nil
}
