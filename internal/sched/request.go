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

	// Expired marks a request cancelled by deadline expiry. The engine sets
	// it; schedulers never see expired requests (they are removed from the
	// pending list and any sweep at expiry time).
	Expired bool

	// Done marks a request that has left the system (completed, expired, or
	// unserviceable). The engine's deadline calendar uses it for lazy
	// deletion.
	Done bool

	// Ephemeral marks a closed-model flash-crowd extra: unlike the fixed
	// process population, its completion or expiry does not respawn a
	// replacement request.
	Ephemeral bool

	// OnCalendar marks a request currently held by the engine's deadline
	// calendar. The engine's request free list may only recycle a request
	// once it is both Done and off the calendar.
	OnCalendar bool
}
