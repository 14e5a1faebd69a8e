// Package tapejuke is a library for studying and improving the performance
// of single-drive tape jukeboxes, reproducing Hillyer, Rastogi and
// Silberschatz, "Scheduling and Data Replication to Improve Tape Jukebox
// Performance" (ICDE 1999).
//
// It provides:
//
//   - a validated analytic timing model of a helical-scan tape drive inside
//     a robotic library (locate, read, rewind, tape switch);
//   - the paper's full family of retrieval schedulers: FIFO, five static
//     and five dynamic tape-selection policies, and the envelope-extension
//     algorithm with three tape-selection variants;
//   - hot/cold data placement and replication schemes (horizontal and
//     vertical layouts, the SP start-position knob, NR-way replication);
//   - a deterministic event-driven simulator with closed-queuing (constant
//     queue) and open-queuing (Poisson) workload models; and
//   - the cost-performance analysis of replicated jukebox farms.
//
// The zero-effort entry point is Run:
//
//	cfg := tapejuke.Config{Algorithm: tapejuke.EnvelopeMaxBandwidth}.WithDefaults()
//	res, err := tapejuke.Run(cfg)
//
// which simulates the paper's reference jukebox (ten 7 GB tapes behind one
// Exabyte EXB-8505XL drive) under a moderately skewed closed workload.
package tapejuke

import (
	"errors"
	"fmt"

	"tapejuke/internal/farm"
	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
	"tapejuke/internal/sim"
	"tapejuke/internal/tapemodel"
)

// Placement selects how hot data is laid out across the tapes: Horizontal
// ("horizontal") or Vertical ("vertical").
type Placement = layout.Kind

const (
	// Horizontal spreads hot blocks (and replicas) across all tapes.
	Horizontal Placement = layout.Horizontal
	// Vertical collects all hot originals on a single tape.
	Vertical Placement = layout.Vertical
)

// Result holds the metrics of one simulation run; see the field
// documentation in the internal sim package mirror of this type.
type Result = sim.Result

// Config describes a jukebox, a data layout, a workload, and a scheduling
// algorithm. The zero value is not runnable; start from WithDefaults.
type Config struct {
	// DriveProfile names the drive timing model: "exb8505xl" (the paper's
	// measured drive, the default), "fast" (a hypothetical faster
	// helical-scan drive), or the synthetic serpentine drives "dlt7000"
	// and "lto9".
	DriveProfile string
	// BlockMB is the I/O transfer size in megabytes (default 16, the
	// paper's recommendation from Figure 3).
	BlockMB float64
	// TapeCapMB is one tape's capacity in megabytes (default 7168 = 7 GB).
	TapeCapMB float64
	// Tapes is the number of tapes in the jukebox (default 10).
	Tapes int
	// Drives is the number of drives sharing those tapes (default 1, the
	// paper's configuration; >1 enables the multi-drive extension the paper
	// leaves as future work).
	Drives int

	// HotPercent (PH) is the percent of stored blocks that are hot
	// (default 10). ReadHotPercent (RH) is the percent of requests
	// directed at hot blocks (default 40, the paper's "moderate skew").
	HotPercent     float64
	ReadHotPercent float64
	// SequentialProb in [0,1) enables the clustered-access extension:
	// each request continues the previous block's sequential run with
	// this probability (the paper's workloads are independent; default 0).
	SequentialProb float64
	// ZipfS > 1 replaces the two-class hot/cold skew with Zipf-distributed
	// popularity over block ranks (extension; ReadHotPercent is then
	// ignored). Zero keeps the paper's model.
	ZipfS float64
	// Replicas (NR) is the number of extra copies of each hot block,
	// at most one per tape (default 0).
	Replicas int
	// Placement lays hot data out horizontally or vertically (default
	// horizontal).
	Placement Placement
	// StartPos (SP) in [0,1] places the hot region within each tape:
	// 0 = beginning, 1 = end (default 0).
	StartPos float64
	// DataMB, when positive, stores only that much base data instead of
	// filling the jukebox (a partially filled library, as in the paper's
	// gradual-fill scenario of Section 4.8).
	DataMB float64
	// PackAfterData appends the hot/replica region right after each tape's
	// data instead of at the StartPos-scaled position: "replicas at the
	// tape ends" in the append-only sense that matters on a partially
	// filled tape. StartPos is ignored when set.
	PackAfterData bool

	// Algorithm selects the scheduler (default DynamicMaxBandwidth; see
	// Algorithms for the full list).
	Algorithm Algorithm

	// RAO reorders every sweep into a Recommended-Access-Order-style greedy
	// nearest-first physical order before execution, the way modern LTO
	// deployments schedule batches. Requires a serpentine drive profile
	// ("dlt7000" or "lto9"); helical-scan profiles reject it, since their
	// elevator order already is the physical order.
	RAO bool

	// QueueLength > 0 selects the closed-queuing workload with a constant
	// number of outstanding requests (default 60). MeanInterarrivalSec > 0
	// selects the open-queuing Poisson workload instead; set QueueLength
	// to 0 when using it.
	QueueLength         int
	MeanInterarrivalSec float64

	// HorizonSec is the simulated duration (default 2,000,000 s; the paper
	// runs 10,000,000 s). WarmupFrac of the horizon is excluded from
	// metrics (default 0.05).
	HorizonSec float64
	WarmupFrac float64
	// MaxCompletions, when positive, ends the run early after that many
	// measured completions.
	MaxCompletions int64

	// Writes enables the delta-write extension; see WriteConfig.
	Writes WriteConfig

	// Faults enables the fault-injection extension; see FaultConfig.
	Faults FaultConfig

	// Deadlines, Admission, Burst, Degrade and AgeWeight configure the
	// overload-robustness extension: per-class request deadlines with
	// expiry, a bounded admission queue, bursty arrivals, graceful
	// degradation, and starvation-aware aging in tape selection. Every zero
	// value disables its layer; with all of them off the simulator is
	// bit-identical to the overload-free engine.
	Deadlines DeadlineConfig
	Admission AdmissionConfig
	Burst     BurstConfig
	Degrade   DegradeConfig
	AgeWeight float64

	// Repair enables the self-healing replication extension; see
	// RepairConfig.
	Repair RepairConfig

	// Health enables the proactive media-health extension; see
	// HealthConfig.
	Health HealthConfig

	// Observer, when non-nil, receives every simulator event inline. It is
	// excluded from JSON serialization (live hook, not configuration).
	Observer Observer `json:"-"`

	// Seed makes runs reproducible (default 1).
	Seed int64
}

// WithDefaults fills unset fields with the paper's reference values and
// returns the completed configuration.
func (c Config) WithDefaults() Config {
	if c.DriveProfile == "" {
		c.DriveProfile = "exb8505xl"
	}
	if c.BlockMB == 0 {
		c.BlockMB = 16
	}
	if c.TapeCapMB == 0 {
		c.TapeCapMB = 7168
	}
	if c.Tapes == 0 {
		c.Tapes = 10
	}
	if c.Drives == 0 {
		c.Drives = 1
	}
	if c.HotPercent == 0 {
		c.HotPercent = 10
	}
	if c.ReadHotPercent == 0 {
		c.ReadHotPercent = 40
	}
	if c.Placement == "" {
		c.Placement = Horizontal
	}
	if c.Algorithm == "" {
		c.Algorithm = DynamicMaxBandwidth
	}
	if c.QueueLength == 0 && c.MeanInterarrivalSec == 0 {
		c.QueueLength = 60
	}
	if c.HorizonSec == 0 {
		c.HorizonSec = 2_000_000
	}
	if c.WarmupFrac == 0 {
		c.WarmupFrac = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Run simulates the configuration and returns its metrics.
func Run(c Config) (*Result, error) {
	sc, err := c.toSim()
	if err != nil {
		return nil, err
	}
	return sim.Run(*sc)
}

// toSim translates the public configuration into the internal one,
// instantiating the profile and the scheduler.
func (c Config) toSim() (*sim.Config, error) {
	prof := tapemodel.PositionerByName(c.DriveProfile)
	if prof == nil {
		return nil, fmt.Errorf("tapejuke: unknown drive profile %q", c.DriveProfile)
	}
	schd, err := NewScheduler(c.Algorithm)
	if err != nil {
		return nil, err
	}
	var factory func() sched.Scheduler
	if c.Drives > 1 {
		alg := c.Algorithm
		factory = func() sched.Scheduler {
			s, ferr := NewScheduler(alg)
			if ferr != nil {
				panic(ferr) // unreachable: the algorithm resolved above
			}
			return s
		}
	}
	sc := &sim.Config{
		Profile:          prof,
		BlockMB:          c.BlockMB,
		TapeCapMB:        c.TapeCapMB,
		Tapes:            c.Tapes,
		HotPercent:       c.HotPercent,
		Replicas:         c.Replicas,
		Kind:             c.Placement,
		StartPos:         c.StartPos,
		DataBlocks:       int(c.DataMB / c.BlockMB),
		PackAfterData:    c.PackAfterData,
		ReadHotPercent:   c.ReadHotPercent,
		SequentialProb:   c.SequentialProb,
		ZipfS:            c.ZipfS,
		QueueLength:      c.QueueLength,
		MeanInterarrival: c.MeanInterarrivalSec,
		Scheduler:        schd,
		RAO:              c.RAO,
		Drives:           c.Drives,
		SchedulerFactory: factory,
		Horizon:          c.HorizonSec,
		WarmupFrac:       c.WarmupFrac,
		MaxCompletions:   c.MaxCompletions,
		Seed:             c.Seed,
		Observer:         c.Observer,
		Deadlines:        c.Deadlines,
		Admission:        c.Admission,
		Burst:            c.Burst,
		Degrade:          c.Degrade,
		AgeWeight:        c.AgeWeight,
		Repair:           c.Repair,
		Health:           c.Health,
	}
	c.Writes.toSim(sc)
	sc.Faults = c.Faults.toFaults()
	return sc, nil
}

// ExpansionFactor returns E = 1 + NR*PH/100, the storage growth caused by
// the configuration's replication (Figure 10a).
func (c Config) ExpansionFactor() float64 {
	return farm.ExpansionFactor(c.Replicas, c.HotPercent)
}

// CostPerformanceRatio compares the per-jukebox throughput of a replication
// scheme against a baseline (Section 4.8): a value above 1 means the
// performance gain pays for the storage expansion.
func CostPerformanceRatio(replicated, baseline *Result) (float64, error) {
	if replicated == nil || baseline == nil {
		return 0, errors.New("tapejuke: nil result")
	}
	return farm.CostPerformanceRatio(replicated.ThroughputKBps, baseline.ThroughputKBps)
}

// ScaledQueueLength spreads a closed workload sized at `base` outstanding
// requests per non-replicated jukebox across the E-times-larger replicated
// farm, as the Figure 10b experiment does.
func ScaledQueueLength(base int, expansion float64) (int, error) {
	return farm.ScaledQueueLength(base, expansion)
}

// StreamingRateKBps returns the named drive profile's sustained transfer
// rate in KB/s, the denominator of the "fraction of streaming" figure of
// merit.
func StreamingRateKBps(profile string) (float64, error) {
	p := tapemodel.PositionerByName(profile)
	if p == nil {
		return 0, fmt.Errorf("tapejuke: unknown drive profile %q", profile)
	}
	return p.StreamingRateMBps() * 1024, nil
}
