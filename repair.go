package tapejuke

import (
	"tapejuke/internal/sim"
)

// Repair-extension event kinds.
const (
	// EventRepairRead reports a repair job reading a surviving copy; the
	// event's Request field carries the repair job ID.
	EventRepairRead = sim.EventRepairRead
	// EventRepairWrite reports a repair job writing its rebuilt copy.
	EventRepairWrite = sim.EventRepairWrite
	// EventReclaim reports an excess replica of a cooled block being
	// reclaimed (metadata-only; no drive motion).
	EventReclaim = sim.EventReclaim
)

// RepairConfig enables the self-healing replication extension: heat-tracked
// background repair jobs that rebuild lost replicas -- and optionally
// promote hot under-replicated blocks and reclaim cold excess copies --
// during drive idle time. Repair jobs are preemptible at step granularity:
// a real request arriving mid-job takes the drive, and the job resumes
// later without repeating completed work. The zero value disables the
// extension entirely and the engine is bit-identical to the repair-free
// one; see the internal repair package's Config, which this type is, for
// field documentation.
type RepairConfig = sim.RepairConfig
