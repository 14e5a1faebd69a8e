// Package sched provides the retrieval-scheduling framework of Section 3:
// the request and service-list (sweep) abstractions, schedule cost
// evaluation, the tape-selection path every sweep-building scheduler
// shares (Selector), and the simple scheduling algorithms (FIFO, five
// static and five dynamic tape-selection policies). The envelope-extension
// algorithm of Section 3.2 builds on this package and lives in
// internal/core.
package sched

import (
	"tapejuke/internal/layout"
)

// Request is one outstanding block retrieval.
type Request struct {
	ID      int64          // unique, in arrival order
	Block   layout.BlockID // requested logical block
	Arrival float64        // simulation time at which the request arrived

	// Target is the physical copy chosen to satisfy the request; it is set
	// by a scheduler when the request enters a service list.
	Target layout.Replica

	// FaultedAt records the simulation time at which the request first lost
	// a chosen copy to a permanent fault (zero if never). The engine uses it
	// to measure recovery latency when a surviving replica later serves the
	// request.
	FaultedAt float64

	// Deadline, when positive, is the absolute simulation time by which the
	// request must complete; a request still unserved at its deadline is
	// cancelled by the engine (deadline expiry). Zero means no deadline.
	Deadline float64

	// Place records where the engine holds the request. The engine sets it
	// at every transition; schedulers never read it.
	Place Place

	// Ephemeral marks a closed-model flash-crowd extra: unlike the fixed
	// process population, it leaves without respawning a replacement
	// request, whichever way it leaves.
	Ephemeral bool

	// DeadlineSlot is one more than the request's index in the engine's
	// deadline calendar, or 0 when the calendar does not hold it; the
	// calendar keeps it current so a request leaving the system is removed
	// in O(log n). An int32 beside the bytes keeps the struct at 64 bytes.
	DeadlineSlot int32
}

// Place is where a live request is held.
type Place uint8

const (
	Queued   Place = iota // on Shared.Pending or in a drive's sweep (the zero value)
	InFlight              // a drive is reading it
	Limbo                 // a drive holds it until its fault settles
	Gone                  // it left while in limbo; the drive's settle recycles it
)
