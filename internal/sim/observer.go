package sim

// EventKind labels one observed simulator event.
type EventKind int

const (
	// EventSwitch: the drive replaced the mounted tape.
	EventSwitch EventKind = iota
	// EventRead: one block retrieval (locate + transfer) finished.
	EventRead
	// EventComplete: a request left the system.
	EventComplete
	// EventIdle: the drive sat idle waiting for an arrival.
	EventIdle
	// EventWriteFlush: one buffered delta block was written to tape (the
	// write-model extension). Pos is its delta-log position on Tape, and
	// Seconds its locate and transfer; a flush of several blocks emits one
	// event per block.
	EventWriteFlush
	// EventFault: a read or switch attempt failed (Seconds is the drive
	// time the failed attempt consumed). Every attempt is reported, at the
	// simulated time the attempt ends, regardless of drive count.
	EventFault
	// EventTapeFail: a tape was discovered permanently failed and masked
	// from all future scheduling.
	EventTapeFail
	// EventDriveRepair: a drive failed and completed its repair downtime
	// (Seconds; Time is the end of the repair).
	EventDriveRepair
	// EventUnserviceable: a request was abandoned because every copy of its
	// block is lost.
	EventUnserviceable
	// EventExpire: a request was cancelled at its deadline before its read
	// started (the overload extension).
	EventExpire
	// EventShed: a pending request was dropped by the shed-oldest admission
	// policy to make room for a newcomer.
	EventShed
	// EventReject: an arriving request was turned away by the reject
	// admission policy (it never entered the system's queue).
	EventReject
	// EventRepairRead: a background repair job read a surviving copy of
	// its block (Request is the repair job ID).
	EventRepairRead
	// EventRepairWrite: a background repair job wrote (minted) a new copy
	// at (Tape, Pos); the copy enters the replica tables when the write
	// settles (Request is the repair job ID).
	EventRepairWrite
	// EventReclaim: a cold excess copy at (Tape, Pos) was reclaimed
	// (metadata-only: the copy leaves the replica tables).
	EventReclaim
	// EventScrubRead: the background scrub scanner verified the live copy
	// at (Tape, Pos) during drive idle time (the health extension).
	EventScrubRead
	// EventEvacuate: the copy at (Tape, Pos) on a suspect tape was dropped
	// after its replacement committed elsewhere (metadata-only, like
	// EventReclaim).
	EventEvacuate
	// EventDriveFence: a drive crossed its error-score threshold and spent
	// Seconds of maintenance downtime fenced out of scheduling (Time is
	// the end of the maintenance).
	EventDriveFence
	// EventLatentFound: a latent error at (Tape, Pos) was detected -- by a
	// scrub pass, a repair read, or a failing user read -- and the copy
	// escalated to dead. Seconds is the detection latency since the error
	// developed.
	EventLatentFound
)

// kindNames names every event kind, indexed by kind: the trace format's
// spelling of each.
var kindNames = [...]string{
	EventSwitch: "switch", EventRead: "read", EventComplete: "complete", EventIdle: "idle",
	EventWriteFlush: "write-flush", EventFault: "fault", EventTapeFail: "tape-fail",
	EventDriveRepair: "drive-repair", EventUnserviceable: "unserviceable", EventExpire: "expire",
	EventShed: "shed", EventReject: "reject", EventRepairRead: "repair-read",
	EventRepairWrite: "repair-write", EventReclaim: "reclaim", EventScrubRead: "scrub-read",
	EventEvacuate: "evacuate", EventDriveFence: "drive-fence", EventLatentFound: "latent-found",
}

// String names the event kind, or "unknown" for a value no kind has.
func (k EventKind) String() string {
	if uint(k) >= uint(len(kindNames)) {
		return "unknown"
	}
	return kindNames[k]
}

// ParseEventKind returns the kind String names name, or -1 when no kind
// has that name.
func ParseEventKind(name string) EventKind {
	for k, n := range kindNames {
		if n == name {
			return EventKind(k)
		}
	}
	return -1
}

// Event is one simulator occurrence, reported in simulated-time order.
type Event struct {
	Kind    EventKind
	Time    float64 // simulation time at the end of the event
	Tape    int     // tape involved (-1 when not applicable)
	Pos     int     // block position involved (-1 when not applicable)
	Seconds float64 // duration of the operation
	Request int64   // request ID (EventRead/EventComplete), 0 otherwise
}

// Observer receives simulator events. Observers must be fast; they run
// inline with the simulation. A nil observer costs nothing.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe calls f(e).
func (f ObserverFunc) Observe(e Event) { f(e) }

// Tally counts events per kind: every event (Count), those that ended
// after warm-up (Post), and the Seconds they carry. The kernel tallies each
// event at issue; a trace summary tallies its records the same way.
type Tally struct {
	Count   [len(kindNames)]int64
	Post    [len(kindNames)]int64
	Seconds [len(kindNames)]float64
}

// Add tallies one event; post reports whether it ended after warm-up.
func (t *Tally) Add(ev Event, post bool) {
	t.Count[ev.Kind]++
	if post {
		t.Post[ev.Kind]++
	}
	t.Seconds[ev.Kind] += ev.Seconds
}

// Charge sets the Result fields the event stream alone defines; DESIGN.md
// section 10 says why the other counters stay charged where they happen.
func (t *Tally) Charge(res *Result) {
	res.TotalCompleted = t.Count[EventComplete]
	res.Completed = t.Post[EventComplete]
	res.TapeSwitches = t.Post[EventSwitch]
	res.SwitchSeconds = t.Seconds[EventSwitch]
	res.IdleSeconds = t.Seconds[EventIdle]
	res.WritesFlushed = t.Count[EventWriteFlush]
	res.TapeFailures = int(t.Count[EventTapeFail])
	res.DriveFailures = t.Count[EventDriveRepair]
	res.FencedDrives = t.Count[EventDriveFence]
	res.Unserviceable = t.Count[EventUnserviceable]
	res.Expired = t.Count[EventExpire]
	res.Shed = t.Count[EventShed]
	res.Rejected = t.Count[EventReject]
	res.ReclaimedCopies = t.Count[EventReclaim]
	res.EvacuatedCopies = t.Count[EventEvacuate]
	res.LatentErrorsFound = t.Count[EventLatentFound]
}
