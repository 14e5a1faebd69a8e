package tapejuke

import (
	"fmt"

	"tapejuke/internal/sim"
)

// Event is one simulator occurrence (tape switch, block read, request
// completion, idle period, or delta-block write), reported in
// simulated-time order.
type Event = sim.Event

// EventKind labels an Event.
type EventKind = sim.EventKind

// Event kinds.
const (
	EventSwitch   = sim.EventSwitch
	EventRead     = sim.EventRead
	EventComplete = sim.EventComplete
	EventIdle     = sim.EventIdle
	// EventWriteFlush is one delta block written to tape: Pos is its
	// delta-log position and Seconds its locate and transfer.
	EventWriteFlush = sim.EventWriteFlush
)

// Observer receives simulator events inline; see ObserverFunc for the
// function adapter. Observers must be fast.
type Observer = sim.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = sim.ObserverFunc

// WritePolicy names a delta-write flush policy for the write-model
// extension: the paper assumes writes buffer in disk-resident delta files
// and reach tape "during idle time or piggybacked on the read schedule".
type WritePolicy string

const (
	// WritePiggyback flushes a tape's buffered deltas whenever a read sweep
	// on that tape completes.
	WritePiggyback WritePolicy = "piggyback"
	// WriteIdleOnly flushes only while the jukebox would otherwise idle.
	WriteIdleOnly WritePolicy = "idle-only"
	// WritePiggybackAndIdle does both.
	WritePiggybackAndIdle WritePolicy = "piggyback+idle"
)

// WriteConfig enables the write-model extension on a Config.
type WriteConfig struct {
	// MeanInterarrivalSec is the mean gap between delta-block writes
	// (Poisson); zero disables the extension.
	MeanInterarrivalSec float64
	// Policy picks when buffers drain (default piggyback).
	Policy WritePolicy
	// ReserveMB is carved off the end of every tape as a circular delta
	// log (default 256 MB).
	ReserveMB float64
	// FlushThreshold, when positive, force-drains the fullest tape once
	// that many blocks are buffered.
	FlushThreshold int
}

func (w WriteConfig) toSim(sc *sim.Config) error {
	if w.MeanInterarrivalSec == 0 {
		return nil
	}
	sc.WriteMeanInterarrival = w.MeanInterarrivalSec
	sc.WriteReserveMB = w.ReserveMB
	sc.WriteFlushThreshold = w.FlushThreshold
	switch w.Policy {
	case "", WritePiggyback:
		sc.WritePolicy = sim.WritePiggyback
	case WriteIdleOnly:
		sc.WritePolicy = sim.WriteIdleOnly
	case WritePiggybackAndIdle:
		sc.WritePolicy = sim.WritePiggybackAndIdle
	default:
		return fmt.Errorf("tapejuke: unknown write policy %q", w.Policy)
	}
	return nil
}
