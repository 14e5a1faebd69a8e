// Package sim is the event-driven jukebox simulator implementing the
// service model of Section 2.2: a loop of major reschedules, tape switches,
// and sweep executions, with the incremental scheduler handling requests
// that arrive mid-sweep. It supports the paper's closed-queuing (constant
// queue length) and open-queuing (Poisson arrivals) request generation
// scenarios and reports the throughput/latency metrics the figures plot.
package sim

import (
	"errors"
	"fmt"

	"tapejuke/internal/faults"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
	"tapejuke/internal/workload"
)

// Config fully describes one simulation run.
type Config struct {
	// Profile is the drive timing model; nil selects the EXB-8505XL.
	Profile tapemodel.Positioner
	// BlockMB is the I/O transfer size in megabytes (the paper settles on
	// 16 MB; Figure 3 sweeps it).
	BlockMB float64
	// TapeCapMB is the capacity of one tape in megabytes (7 GB = 7168 MB in
	// the paper). The per-tape block count is TapeCapMB/BlockMB, truncated.
	TapeCapMB float64
	// Tapes is the number of tapes in the jukebox (10 in the paper).
	Tapes int

	// HotPercent (PH), Replicas (NR), Kind and StartPos (SP) configure the
	// data layout; see package layout.
	HotPercent float64
	Replicas   int
	Kind       layout.Kind
	StartPos   float64
	// DataBlocks, when positive, stores that many logical blocks instead
	// of filling the jukebox to capacity (partial fill, Section 4.8's
	// gradual-fill scenario).
	DataBlocks int
	// PackAfterData appends the hot/replica region right after each tape's
	// data instead of at the StartPos position (see layout.Config).
	PackAfterData bool

	// ReadHotPercent (RH) is the percent of requests directed to hot data.
	ReadHotPercent float64
	// SequentialProb, when positive, enables the clustered-access
	// extension: each request continues the previous block's sequential
	// run with this probability instead of drawing independently. The
	// paper's workloads are independent (zero).
	SequentialProb float64
	// ZipfS, when positive (must exceed 1), replaces the two-class
	// hot/cold skew with Zipf-distributed popularity over block ranks
	// (extension); ReadHotPercent and SequentialProb are then ignored.
	ZipfS float64

	// QueueLength > 0 selects the closed-queuing model with that many
	// I/O-bound processes. MeanInterarrival > 0 selects the open-queuing
	// model with Poisson arrivals. Exactly one must be set.
	QueueLength      int
	MeanInterarrival float64

	// Arrivals, when non-nil, replaces the arrival process the engine
	// would otherwise derive from QueueLength/MeanInterarrival (those
	// still validate and describe the nominal load). The farm front end
	// uses it to hand each library shard its routed sub-stream as a
	// replayed trace.
	Arrivals workload.Arrivals
	// Source, when non-nil, replaces the skewed block generator: the
	// engine draws every requested block from it instead of building a
	// hot/cold (or Zipf) generator. Paired with Arrivals by the farm so
	// the router, not the shard, decides which blocks are asked for.
	Source workload.Source

	// Scheduler services the requests. The instance may be stateful and
	// must be fresh for each run.
	Scheduler sched.Scheduler

	// Drives is the number of drives sharing the jukebox's tapes (default
	// 1, the paper's configuration; >1 enables the multi-drive extension).
	// Multi-drive runs need SchedulerFactory because every drive gets its
	// own stateful scheduler instance.
	Drives           int
	SchedulerFactory func() sched.Scheduler

	// Horizon is the simulated duration in seconds (the paper models 10
	// million seconds per run).
	Horizon float64
	// WarmupFrac is the fraction of the horizon excluded from metrics
	// (default 0.05 when zero).
	WarmupFrac float64
	// MaxCompletions, when positive, stops the run early after that many
	// post-warmup completions; benchmarks use it to bound work.
	MaxCompletions int64

	// RAO applies Recommended-Access-Order-style reordering to every sweep
	// before execution: the elevator order is replaced by a greedy
	// nearest-first physical order (sched.Sweep.ReorderRAO). Only
	// meaningful -- and only accepted -- on serpentine drive profiles,
	// where physical adjacency diverges from logical adjacency. The
	// schedulers' cost evaluation still scores elevator sweeps (the paper's
	// algorithms are unmodified); reordering happens at issue time, like a
	// drive-level RAO command.
	RAO bool

	// Seed makes runs deterministic.
	Seed int64

	// Observer, when non-nil, receives every simulator event (tape
	// switches, reads, completions, idle periods, write flushes) inline.
	Observer Observer

	// Write-model extension: the paper assumes writes go to disk-resident
	// delta files and reach tape "during idle time or piggybacked on the
	// read schedule". WriteMeanInterarrival > 0 enables a Poisson stream of
	// delta-block writes; WriteReserveMB of each tape (default 256 when
	// writes are enabled) is carved off the end as a circular delta log;
	// WritePolicy picks when buffers drain; a positive WriteFlushThreshold
	// force-drains the fullest tape once that many blocks are buffered.
	// The disk buffers are jukebox-wide: with several drives, whichever
	// drive frees up first picks up an eligible flush.
	WriteMeanInterarrival float64
	WritePolicy           WritePolicy
	WriteReserveMB        float64
	WriteFlushThreshold   int

	// Faults configures the fault-injection model (see package faults):
	// transient media errors, bad-block ranges, whole-tape and drive
	// failures, and switch failures, with bounded retries and replica-based
	// recovery. The zero value disables every fault class. When
	// Faults.Seed is zero the fault streams derive from Seed+3, keeping
	// fault and workload randomness independent.
	Faults faults.Config

	// Overload-robustness extensions. Each zero value disables its layer;
	// with all four off and AgeWeight zero the engine is bit-identical to
	// the overload-free simulator (the golden tests pin this).
	Deadlines DeadlineConfig
	Admission AdmissionConfig
	Burst     BurstConfig
	Degrade   DegradeConfig

	// AgeWeight enables starvation-aware aging in every scheduler's tape
	// selection (see sched.Shared.AgeWeight). Zero disables it.
	AgeWeight float64

	// Repair configures self-healing replication: background jobs that
	// rebuild lost replicas (and optionally promote hot blocks and reclaim
	// cold excess copies) during drive idle time. The zero value disables
	// the subsystem, leaving the event stream bit-identical to a build
	// without it.
	Repair RepairConfig

	// Health configures proactive media health: background latent-error
	// scrubbing, tape/drive health scoring, preemptive evacuation of
	// degrading tapes, and drive fencing. The zero value disables the
	// subsystem, leaving the event stream bit-identical to a build
	// without it.
	Health HealthConfig
}

// ConfigError is a typed validation error for the overload-robustness
// configuration surface, retrievable with errors.As.
type ConfigError struct {
	Field  string // the offending Config field, e.g. "Deadlines.HotTTL"
	Reason string
}

// Error implements the error interface.
func (e *ConfigError) Error() string { return fmt.Sprintf("sim: %s: %s", e.Field, e.Reason) }

// DeadlineConfig assigns per-class request deadlines: a request's deadline
// is its arrival time plus a TTL drawn from its block class's distribution.
// A request still incomplete at its deadline is cancelled (expired) unless
// it is already being read. The zero value disables deadlines.
type DeadlineConfig struct {
	// HotTTL and ColdTTL are the mean TTLs in seconds for requests on hot
	// and cold blocks; zero disables deadlines for that class.
	HotTTL  float64
	ColdTTL float64
	// Fixed uses the means as exact TTLs instead of exponential draws.
	Fixed bool
	// Seed for the TTL stream; zero derives Seed+4 so deadline randomness
	// stays independent of the workload's.
	Seed int64
}

// Enabled reports whether any class gets deadlines.
func (d DeadlineConfig) Enabled() bool { return d.HotTTL > 0 || d.ColdTTL > 0 }

// AdmitPolicy selects what a bounded admission queue does on overflow.
type AdmitPolicy int

const (
	// AdmitNone disables admission control (unbounded queue).
	AdmitNone AdmitPolicy = iota
	// AdmitReject turns the newly arriving request away.
	AdmitReject
	// AdmitShed drops the oldest pending request to admit the newcomer.
	AdmitShed
)

// String names the policy.
func (p AdmitPolicy) String() string {
	switch p {
	case AdmitNone:
		return "none"
	case AdmitReject:
		return "reject"
	case AdmitShed:
		return "shed-oldest"
	}
	return "unknown"
}

// AdmissionConfig bounds the number of outstanding requests. When the bound
// is reached, Policy decides who is turned away. Closed-model respawns are
// exempt (the fixed population is the bound there); external arrivals --
// open-model and flash-crowd extras -- are subject to it.
type AdmissionConfig struct {
	// MaxQueue is the outstanding-request bound; required positive when a
	// policy is set.
	MaxQueue int
	// Policy is the overflow behavior; AdmitNone disables admission control.
	Policy AdmitPolicy
}

// Enabled reports whether admission control is on.
func (a AdmissionConfig) Enabled() bool { return a.Policy != AdmitNone }

// BurstConfig makes the open-model arrival process bursty (ON-OFF
// modulation with exponential phases, plus one deterministic flash-crowd
// window) or injects a one-shot flash crowd into the closed model. The
// zero value keeps the stationary paper workloads.
type BurstConfig struct {
	// Factor multiplies the baseline arrival rate while bursting; required
	// positive with Period or FlashLen, the open-model shapes. The closed
	// model's FlashCount crowd does not read it.
	Factor float64
	// OnFrac in (0,1) is the fraction of an ON-OFF cycle spent bursting;
	// Period is the mean cycle length in seconds (open model only).
	OnFrac float64
	Period float64
	// FlashAt starts a flash window: for FlashLen seconds the open model
	// arrives at Factor times the baseline rate (open model only), or
	// FlashCount one-shot ephemeral requests arrive at once (closed model
	// only).
	FlashAt    float64
	FlashLen   float64
	FlashCount int
	// Seed for the burst modulation stream; zero derives Seed+5.
	Seed int64
}

// Enabled reports whether any burst shape is configured.
func (b BurstConfig) Enabled() bool { return b.Period > 0 || b.FlashLen > 0 || b.FlashCount > 0 }

// DegradeConfig enables graceful degradation under sustained overload:
// whenever the outstanding-request count exceeds QueueThreshold, freshly
// built sweeps are truncated to the MaxSweep most urgent requests (the
// rest return to pending) and delta-write flushes are deferred, so drive
// time concentrates on near-deadline reads. The zero value disables it.
type DegradeConfig struct {
	// QueueThreshold is the outstanding-request count above which the
	// system counts as overloaded; zero disables degradation.
	QueueThreshold int
	// MaxSweep, when positive, truncates sweeps built while overloaded to
	// the MaxSweep most urgent requests.
	MaxSweep int
	// DeferWrites skips piggyback and idle delta-write flushes while
	// overloaded (the force-drain threshold still applies).
	DeferWrites bool
}

// Enabled reports whether degradation is on.
func (d DegradeConfig) Enabled() bool { return d.QueueThreshold > 0 }

// LayoutConfig returns the layout configuration the engine will build for
// c, plus the per-tape data capacity in blocks (tape capacity minus any
// write reserve). It applies the same write-reserve defaulting the engine
// does, so external pre-passes — the farm's placement planner and its
// per-shard fault projection — see exactly the geometry a run of c will
// simulate.
func (c Config) LayoutConfig() (layout.Config, int, error) {
	if c.WriteMeanInterarrival > 0 && c.WriteReserveMB == 0 {
		c.WriteReserveMB = 256
	}
	dataCapMB := c.TapeCapMB
	if c.WriteMeanInterarrival > 0 {
		dataCapMB -= c.WriteReserveMB
		if dataCapMB < c.BlockMB || c.WriteReserveMB < c.BlockMB {
			return layout.Config{}, 0, fmt.Errorf("sim: write reserve %v MB leaves no room for data or deltas", c.WriteReserveMB)
		}
	}
	capBlocks := int(dataCapMB / c.BlockMB)
	return layout.Config{
		Tapes:         c.Tapes,
		TapeCapBlocks: capBlocks,
		HotPercent:    c.HotPercent,
		Replicas:      c.Replicas,
		Kind:          c.Kind,
		StartPos:      c.StartPos,
		DataBlocks:    c.DataBlocks,
		PackAfterData: c.PackAfterData,
	}, capBlocks, nil
}

// Validate reports the first configuration error, applying no defaults.
func (c *Config) Validate() error {
	if c.BlockMB <= 0 {
		return errors.New("sim: BlockMB must be positive")
	}
	if c.TapeCapMB <= 0 {
		return errors.New("sim: TapeCapMB must be positive")
	}
	if c.TapeCapMB < c.BlockMB {
		return errors.New("sim: TapeCapMB must hold at least one block")
	}
	if c.Tapes < 1 {
		return errors.New("sim: need at least one tape")
	}
	if c.Scheduler == nil {
		return errors.New("sim: no scheduler")
	}
	if c.Drives < 0 || c.Drives > c.Tapes {
		return fmt.Errorf("sim: %d drives impossible with %d tapes", c.Drives, c.Tapes)
	}
	if c.Drives > 1 && c.SchedulerFactory == nil {
		return errors.New("sim: multi-drive runs need SchedulerFactory")
	}
	if c.QueueLength < 0 {
		return fmt.Errorf("sim: QueueLength %d must be non-negative", c.QueueLength)
	}
	if c.MeanInterarrival < 0 {
		return fmt.Errorf("sim: MeanInterarrival %v must be non-negative", c.MeanInterarrival)
	}
	closed := c.QueueLength > 0
	open := c.MeanInterarrival > 0
	if closed == open {
		return fmt.Errorf("sim: exactly one of QueueLength (%d) and MeanInterarrival (%v) must be positive",
			c.QueueLength, c.MeanInterarrival)
	}
	if c.Horizon <= 0 {
		return errors.New("sim: Horizon must be positive")
	}
	if c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return errors.New("sim: WarmupFrac must be in [0,1)")
	}
	if c.SequentialProb < 0 || c.SequentialProb >= 1 {
		return errors.New("sim: SequentialProb must be in [0,1)")
	}
	if c.ZipfS < 0 || (c.ZipfS > 0 && c.ZipfS <= 1) {
		return errors.New("sim: ZipfS must be zero (disabled) or greater than 1")
	}
	if c.WriteMeanInterarrival < 0 {
		return errors.New("sim: WriteMeanInterarrival must be non-negative")
	}
	if c.WriteReserveMB < 0 || (c.WriteReserveMB > 0 && c.WriteReserveMB >= c.TapeCapMB) {
		return fmt.Errorf("sim: WriteReserveMB %v must leave room for data on a %v MB tape",
			c.WriteReserveMB, c.TapeCapMB)
	}
	if c.RAO {
		if _, ok := c.Profile.(*tapemodel.Serpentine); !ok {
			return errors.New("sim: RAO reordering requires a serpentine drive profile")
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Faults.Enabled() && c.WriteMeanInterarrival > 0 {
		return errors.New("sim: the fault model does not cover the write extension")
	}
	if err := c.validateOverload(); err != nil {
		return err
	}
	if err := c.validateRepair(); err != nil {
		return err
	}
	return c.validateHealth()
}

// validateOverload checks the overload-robustness surface, reporting typed
// *ConfigError values.
func (c *Config) validateOverload() error {
	d := c.Deadlines
	if d.HotTTL < 0 {
		return &ConfigError{"Deadlines.HotTTL", "TTL must be non-negative"}
	}
	if d.ColdTTL < 0 {
		return &ConfigError{"Deadlines.ColdTTL", "TTL must be non-negative"}
	}
	a := c.Admission
	if a.Policy < AdmitNone || a.Policy > AdmitShed {
		return &ConfigError{"Admission.Policy", fmt.Sprintf("unknown policy %d", a.Policy)}
	}
	if a.MaxQueue < 0 {
		return &ConfigError{"Admission.MaxQueue", "queue bound must be non-negative"}
	}
	if a.Enabled() && a.MaxQueue == 0 {
		return &ConfigError{"Admission.MaxQueue", "bounded admission needs a positive queue bound"}
	}
	if !a.Enabled() && a.MaxQueue > 0 {
		return &ConfigError{"Admission.Policy", "a queue bound needs an overflow policy"}
	}
	b := c.Burst
	if b.Factor < 0 {
		return &ConfigError{"Burst.Factor", "factor must be non-negative"}
	}
	if b.OnFrac < 0 || b.OnFrac >= 1 {
		return &ConfigError{"Burst.OnFrac", "ON fraction out of [0,1)"}
	}
	if b.Period < 0 || b.FlashAt < 0 || b.FlashLen < 0 || b.FlashCount < 0 {
		return &ConfigError{"Burst", "period/flash parameters must be non-negative"}
	}
	if (b.Period > 0 || b.FlashLen > 0) && b.Factor == 0 {
		return &ConfigError{"Burst.Factor", "rate modulation needs a rate factor"}
	}
	if b.Period > 0 && b.OnFrac == 0 {
		return &ConfigError{"Burst.OnFrac", "ON-OFF modulation needs a positive ON fraction"}
	}
	closed := c.QueueLength > 0
	if closed && (b.Period > 0 || b.FlashLen > 0) {
		return &ConfigError{"Burst", "rate modulation needs the open model (use FlashCount for closed flash crowds)"}
	}
	if !closed && b.FlashCount > 0 {
		return &ConfigError{"Burst.FlashCount", "one-shot flash counts need the closed model (use FlashLen for open flashes)"}
	}
	g := c.Degrade
	if g.QueueThreshold < 0 {
		return &ConfigError{"Degrade.QueueThreshold", "threshold must be non-negative"}
	}
	if g.MaxSweep < 0 {
		return &ConfigError{"Degrade.MaxSweep", "sweep bound must be non-negative"}
	}
	if !g.Enabled() && (g.MaxSweep > 0 || g.DeferWrites) {
		return &ConfigError{"Degrade.QueueThreshold", "degradation actions need an overload threshold"}
	}
	if g.Enabled() && g.MaxSweep == 0 && !g.DeferWrites {
		return &ConfigError{"Degrade", "an overload threshold needs a degradation action (MaxSweep or DeferWrites)"}
	}
	if g.DeferWrites && c.WriteMeanInterarrival <= 0 {
		return &ConfigError{"Degrade.DeferWrites", "deferring writes needs the write extension"}
	}
	if c.AgeWeight < 0 {
		return &ConfigError{"AgeWeight", "aging weight must be non-negative"}
	}
	return nil
}

// Result reports the metrics of one run. All "response" figures are
// request response times (completion minus arrival) in seconds, measured
// after warm-up.
type Result struct {
	SchedulerName string

	SimSeconds      float64 // simulated time actually covered
	MeasuredSeconds float64 // simulated time after warm-up

	Completed         int64   // post-warmup completions
	ThroughputKBps    float64 // KB retrieved per second after warm-up
	RequestsPerMinute float64
	MeanResponseSec   float64
	MaxResponseSec    float64
	P50ResponseSec    float64
	P95ResponseSec    float64
	P99ResponseSec    float64

	TapeSwitches   int64 // post-warmup tape switches
	LocateSeconds  float64
	ReadSeconds    float64
	SwitchSeconds  float64
	IdleSeconds    float64
	MeanQueueLen   float64 // time-averaged outstanding requests
	TotalArrivals  int64   // including warm-up
	TotalCompleted int64   // including warm-up

	// ReadsPerTape counts post-warmup block reads served from each tape,
	// exposing hot-tape concentration and switch economics.
	ReadsPerTape []int64

	// Write-model extension metrics (zero when writes are disabled).
	WritesFlushed     int64   // delta blocks written to tape
	WriteSeconds      float64 // drive time spent flushing deltas
	MeanWriteDelaySec float64 // buffer residence of flushed deltas (post-warmup)
	MaxBufferedWrites int     // peak disk-buffer occupancy in blocks

	// Fault-model metrics (zero when the fault model is disabled, except
	// Availability, which is then 1).
	Retries            int64   // transient-error retry attempts issued
	TransientFaults    int64   // read attempts failed with a recoverable error
	PermanentFaults    int64   // read operations failed permanently (dead copies, escalations, tape failures)
	SwitchFaults       int64   // failed tape load/unload attempts
	TapeFailures       int     // tapes discovered permanently failed by the end of the run
	DriveFailures      int64   // drive failures repaired
	DriveRepairSeconds float64 // drive downtime: repairs and fence maintenance
	FaultSeconds       float64 // drive time consumed by failed attempts and retry backoff
	Unserviceable      int64   // requests abandoned with every copy lost (whole run)
	Rerouted           int64   // post-warmup completions served by a surviving replica after a permanent fault
	MeanRecoverySec    float64 // mean extra wait from first permanent fault to completion (post-warmup)
	Availability       float64 // post-warmup completed / (completed + unserviceable)

	// Overload-robustness metrics (zero when deadlines, admission control,
	// and degradation are all disabled).
	Expired          int64   // requests cancelled at their deadline (whole run)
	LateCompletions  int64   // completions past their deadline (in-flight reads finish late; whole run)
	DeadlineMisses   int64   // post-warmup expiries + late completions of deadlined requests
	DeadlineMissRate float64 // post-warmup misses / deadlined outcomes (completions + expiries)
	Shed             int64   // pending requests dropped by AdmitShed overflow (whole run)
	Rejected         int64   // arrivals turned away by AdmitReject overflow (whole run)
	MaxQueueAgeSec   float64 // oldest age a pending request reached before service, expiry, or shedding (post-warmup)
	TruncatedSweeps  int64   // sweeps cut to the most urgent MaxSweep requests while overloaded
	DeferredFlushes  int64   // piggyback/idle delta flushes skipped while overloaded

	// Self-healing replication (all zero when Repair is disabled).
	RepairJobs          int64   // repair jobs enqueued (loss-driven and promotions)
	RepairedCopies      int64   // new copies minted by completed repair jobs
	ReclaimedCopies     int64   // cold excess copies reclaimed
	RepairSeconds       float64 // drive time spent on repair reads and writes (evacuation included)
	MeanTimeToRepairSec float64 // mean loss-discovery-to-commit latency of minted copies

	// Proactive media health. The scrub/evacuation/fence metrics are zero
	// when Health is disabled; the latent-error counters and
	// MeanTimeToDetectSec populate whenever the fault model injects
	// latent errors, with or without the health extension detecting them
	// early.
	ScrubbedMB           float64 // data verified by background scrub passes
	ScrubSeconds         float64 // drive time spent scrubbing
	LatentErrorsInjected int     // latent bad-block positions injected
	LatentErrorsFound    int64   // latent errors detected by any path
	LatentFoundByScrub   int64   // latent errors the scrub patrol found first
	SuspectTapes         int     // tapes whose health score crossed SuspectScore
	EvacuatedTapes       int     // suspect tapes fully drained of copies
	EvacuationJobs       int64   // evacuation jobs enqueued
	EvacuatedCopies      int64   // copies moved off suspect tapes
	FencedDrives         int64   // drive maintenance fences taken
	MeanTimeToDetectSec  float64 // mean onset-to-detection latency of developed latent errors (undetected ones censored at run end)
}

// EffectiveOfStreaming returns throughput as a fraction of the drive's
// streaming rate, the figure of merit in Section 4.1.
func (r *Result) EffectiveOfStreaming(p tapemodel.Positioner) float64 {
	stream := p.StreamingRateMBps() * 1024 // KB/s
	if stream == 0 {
		return 0
	}
	return r.ThroughputKBps / stream
}
