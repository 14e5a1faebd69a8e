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

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventSwitch:
		return "switch"
	case EventRead:
		return "read"
	case EventComplete:
		return "complete"
	case EventIdle:
		return "idle"
	case EventWriteFlush:
		return "write-flush"
	case EventFault:
		return "fault"
	case EventTapeFail:
		return "tape-fail"
	case EventDriveRepair:
		return "drive-repair"
	case EventUnserviceable:
		return "unserviceable"
	case EventExpire:
		return "expire"
	case EventShed:
		return "shed"
	case EventReject:
		return "reject"
	case EventRepairRead:
		return "repair-read"
	case EventRepairWrite:
		return "repair-write"
	case EventReclaim:
		return "reclaim"
	case EventScrubRead:
		return "scrub-read"
	case EventEvacuate:
		return "evacuate"
	case EventDriveFence:
		return "drive-fence"
	case EventLatentFound:
		return "latent-found"
	}
	return "unknown"
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
