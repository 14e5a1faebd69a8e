// Package figures regenerates every figure of the paper's evaluation
// (Section 4, Figures 1 and 3-10) from the tapejuke simulator. Each figure
// is a set of labelled series of rows; cmd/figures prints them as TSV and
// the repository benchmarks run scaled-down versions.
//
// The paper's graphs are parametric: the independent variable (usually the
// closed-model queue length) traces a curve through (throughput, delay)
// space, and a family of curves varies the quantity under study. Rows carry
// the parameter value and all three outputs so either rendering works.
//
// Internally every figure is a plan: its header plus the simulation jobs
// whose rows fill it, most of them built by series, one job per queue
// length (see plan in engine.go). All plans the whole set up front and
// drains every job through one shared worker pool (see runGrid);
// single-figure entry points run their own plan the same way.
package figures

import (
	"fmt"
	"runtime"
	"sort"

	"tapejuke"
	"tapejuke/internal/tapemodel"
)

// Row is one simulated point of a figure.
type Row struct {
	Series string  // curve label, e.g. "queue-60" or "dynamic-max-bandwidth"
	Param  float64 // the independent variable tracing the curve
	// Outputs (zero when not applicable to the figure):
	ThroughputKBps    float64
	RequestsPerMinute float64
	MeanResponseSec   float64
	Value             float64 // figure-specific scalar (locate seconds, E, cost-performance ratio)

	// 95% confidence half-widths across replications (zero when
	// Options.Replications <= 1).
	ThroughputCI95 float64
	ResponseCI95   float64
}

// Figure is a reproducible paper figure.
type Figure struct {
	ID        string // e.g. "fig3"
	Title     string
	ParamName string // meaning of Row.Param
	ValueName string // meaning of Row.Value, "" if unused
	Rows      []Row
}

// Options scales the simulation effort behind each figure.
type Options struct {
	// HorizonSec is the simulated duration per run (default 1,000,000 s;
	// the paper uses 10,000,000 s).
	HorizonSec float64
	// Seed offsets all run seeds for replication studies.
	Seed int64
	// QueueLengths are the closed-model intensities traced by the
	// parametric figures (default 20,40,...,140 as in the paper).
	QueueLengths []int
	// Open switches the parametric figures to the open-queuing model,
	// tracing mean interarrival times instead of queue lengths (an
	// extension for checking the paper's open-queuing remarks).
	Open bool
	// Workers bounds concurrent simulations (default: GOMAXPROCS).
	Workers int
	// Replications runs every simulated point this many times with
	// distinct seeds and reports means with 95% confidence half-widths
	// (default 1: single runs, no intervals).
	Replications int
	// DriveProfile overrides the drive timing model of every simulated
	// figure (default "exb8505xl", the paper's drive). The
	// hardware-specific figures (serpentine, lto9) set their own profile
	// and ignore it. The analytic figures (fig1, fig10a) are unaffected.
	DriveProfile string
	// RAO applies Recommended-Access-Order sweep reordering to every
	// simulated run; it requires a serpentine DriveProfile ("dlt7000" or
	// "lto9").
	RAO bool
}

func (o Options) withDefaults() Options {
	if o.HorizonSec == 0 {
		o.HorizonSec = 1_000_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if len(o.QueueLengths) == 0 {
		o.QueueLengths = []int{20, 40, 60, 80, 100, 120, 140}
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Replications == 0 {
		o.Replications = 1
	}
	return o
}

// base returns the paper's reference configuration (moderate skew, closed
// queuing, dynamic max-bandwidth) at the option's horizon, on the option's
// drive profile.
func base(o Options) tapejuke.Config {
	return tapejuke.Config{
		HorizonSec:   o.HorizonSec,
		Seed:         o.Seed,
		DriveProfile: o.DriveProfile,
		RAO:          o.RAO,
	}.WithDefaults()
}

// series returns one job per queue length of o, each labelled label and
// running base(o) changed by mut at that intensity (see setIntensity).
func series(o Options, label string, mut func(*tapejuke.Config)) []job {
	jobs := make([]job, len(o.QueueLengths))
	for i, q := range o.QueueLengths {
		cfg := base(o)
		mut(&cfg)
		p := setIntensity(&cfg, o, q)
		jobs[i] = job{series: label, param: p, cfg: cfg}
	}
	return jobs
}

// setIntensity sets the workload intensity on cfg from the closed-model
// queue length q: the queue itself, or on the open model a mean
// interarrival time of comparable intensity, from light load at short
// queues to saturation at long ones (80 s at q=20 down to ~11 s at q=140).
// It returns the value the figure plots.
func setIntensity(cfg *tapejuke.Config, o Options, q int) float64 {
	if o.Open {
		cfg.QueueLength = 0
		cfg.MeanInterarrivalSec = 1600 / float64(q)
		return cfg.MeanInterarrivalSec
	}
	cfg.QueueLength = q
	return float64(q)
}

// fullReplication is the paper's best replicated layout: every hot block
// on all ten tapes (NR-9, vertical) with the replicas at the tape end (SP-1).
func fullReplication(c *tapejuke.Config) {
	c.Placement = tapejuke.Vertical
	c.Replicas = 9
	c.StartPos = 1
}

// allPlans are the paper figures regenerated by All, in publication order.
var allPlans = []func(Options) (plan, error){
	planFig1, planFig3, planFig4, planFig5, planFig6, planFig7,
	planFig8, planFig9, planFig10a, planFig10b,
}

// All regenerates every paper figure. The figures' jobs are planned up
// front and drained together by one worker pool with no barrier between
// figures, so the straggling last runs of one figure overlap the next
// figure's work and per-worker simulation contexts stay warm across the
// whole set.
func All(o Options) ([]*Figure, error) {
	o = o.withDefaults()
	plans := make([]plan, 0, len(allPlans))
	var grid []job
	for _, pf := range allPlans {
		p, err := pf(o)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
		grid = append(grid, p.jobs...)
	}
	rows, err := runGrid(grid, o.Workers, o.Replications)
	if err != nil {
		return nil, err
	}
	out := make([]*Figure, 0, len(plans))
	off := 0
	for _, p := range plans {
		sub := rows[off : off+len(p.jobs) : off+len(p.jobs)]
		off += len(p.jobs)
		f, ferr := p.figure(sub)
		if ferr != nil {
			return nil, ferr
		}
		out = append(out, f)
	}
	return out, nil
}

// ByID regenerates one figure by identifier ("fig1", "fig3".."fig9",
// "fig10a", "fig10b", or an extension figure).
func ByID(id string, o Options) (*Figure, error) {
	gens := map[string]func(Options) (*Figure, error){
		"fig1": Fig1, "fig3": Fig3, "fig4": Fig4, "fig5": Fig5,
		"fig6": Fig6, "fig7": Fig7, "fig8": Fig8, "fig9": Fig9,
		"fig10a": Fig10a, "fig10b": Fig10b,
		// Extension and methodology figures, not in the paper:
		"convergence": Convergence,
		"serpentine":  Serpentine,
		"lto9":        LTO9,
		"multidrive":  MultiDrive,
		"gradualfill": GradualFill,
		"repair":      Repair,
		"health":      Health,
		"farm":        Farm,
	}
	g, ok := gens[id]
	if !ok {
		ids := make([]string, 0, len(gens))
		for k := range gens {
			ids = append(ids, k)
		}
		sort.Strings(ids)
		return nil, fmt.Errorf("figures: unknown figure %q (have %v)", id, ids)
	}
	return g(o)
}

// Fig1 tabulates the locate-time model (Figure 1): seconds to locate past k
// megabytes, forward and reverse, on the EXB-8505XL profile. Pure model
// evaluation, no simulation.
func Fig1(o Options) (*Figure, error) { return runPlan(o, planFig1) }

func planFig1(Options) (plan, error) {
	return plan{
		fig: Figure{
			ID:        "fig1",
			Title:     "Locate time as a function of distance (1 MB logical blocks)",
			ParamName: "distance_mb",
			ValueName: "locate_seconds",
		},
		finish: func(f *Figure) error {
			p := tapemodel.EXB8505XL()
			for _, d := range []float64{1, 2, 4, 8, 16, 24, 28, 29, 32, 64, 128, 256, 512, 1024, 2048, 4096, 7168} {
				f.Rows = append(f.Rows,
					Row{Series: "forward", Param: d, Value: p.LocateForward(d)},
					Row{Series: "reverse", Param: d, Value: p.LocateReverse(d)},
				)
			}
			return nil
		},
	}, nil
}

// Fig3 sweeps the I/O transfer size at four workload intensities
// (PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth).
func Fig3(o Options) (*Figure, error) { return runPlan(o, planFig3) }

func planFig3(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig3",
		Title:     "The effect of transfer size (PH-10 RH-40 NR-0 SP-0)",
		ParamName: "block_mb",
	}}
	for _, q := range []int{20, 60, 100, 140} {
		for _, b := range []float64{2, 4, 8, 16, 32, 64} {
			cfg := base(o)
			cfg.BlockMB = b
			setIntensity(&cfg, o, q)
			p.jobs = append(p.jobs, job{series: fmt.Sprintf("queue-%d", q), param: b, cfg: cfg})
		}
	}
	return p, nil
}

// Fig4 compares all eleven simple schedulers without replication
// (PH-10 RH-40 NR-0 SP-0). The paper plots nine; Section 3.1 defines
// eleven, so all are reported.
func Fig4(o Options) (*Figure, error) { return runPlan(o, planFig4) }

func planFig4(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig4",
		Title:     "Relative performance of scheduling algorithms, no replication (PH-10 RH-40 NR-0 SP-0)",
		ParamName: intensityName(o),
	}}
	for _, a := range []tapejuke.Algorithm{
		tapejuke.FIFO,
		tapejuke.StaticRoundRobin, tapejuke.StaticMaxRequests, tapejuke.StaticMaxBandwidth,
		tapejuke.StaticOldestMaxRequests, tapejuke.StaticOldestMaxBandwidth,
		tapejuke.DynamicRoundRobin, tapejuke.DynamicMaxRequests, tapejuke.DynamicMaxBandwidth,
		tapejuke.DynamicOldestMaxRequests, tapejuke.DynamicOldestMaxBandwidth,
	} {
		p.jobs = append(p.jobs, series(o, string(a), func(c *tapejuke.Config) { c.Algorithm = a })...)
	}
	return p, nil
}

// Fig5 studies hot-data placement without replication: horizontal layouts
// at SP in {0,0.25,0.5,0.75,1} plus the vertical layout, under dynamic
// max-bandwidth.
func Fig5(o Options) (*Figure, error) { return runPlan(o, planFig5) }

func planFig5(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig5",
		Title:     "Throughput and latency as a function of hot data placement, no replication (PH-10 RH-40 NR-0)",
		ParamName: intensityName(o),
	}}
	for _, sp := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("SP-%.2f", sp), func(c *tapejuke.Config) { c.StartPos = sp })...)
	}
	p.jobs = append(p.jobs, series(o, "vertical", func(c *tapejuke.Config) { c.Placement = tapejuke.Vertical })...)
	return p, nil
}

// Fig6 varies the number of replicas of hot data from 0 to 9 (vertical
// layout, replicas at the tape end, dynamic max-bandwidth).
func Fig6(o Options) (*Figure, error) { return runPlan(o, planFig6) }

func planFig6(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig6",
		Title:     "Throughput and latency as a function of the number of replicas (PH-10 RH-40, vertical, SP-1)",
		ParamName: intensityName(o),
	}}
	for nr := 0; nr <= 9; nr++ {
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("NR-%d", nr), func(c *tapejuke.Config) {
			c.Placement = tapejuke.Vertical
			c.Replicas = nr
			c.StartPos = 1
			if nr == 0 {
				c.StartPos = 0 // best no-replication placement
			}
		})...)
	}
	return p, nil
}

// Fig7 varies the placement of replicas with full replication (NR-9,
// vertical), SP from 0 to 1.
func Fig7(o Options) (*Figure, error) { return runPlan(o, planFig7) }

func planFig7(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig7",
		Title:     "Throughput and latency as a function of replica placement (PH-10 RH-40 NR-9, vertical)",
		ParamName: intensityName(o),
	}}
	for _, sp := range []float64{0, 0.25, 0.5, 0.75, 1} {
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("SP-%.2f", sp), func(c *tapejuke.Config) {
			fullReplication(c)
			c.StartPos = sp
		})...)
	}
	return p, nil
}

// Fig8 compares schedulers under full replication at the tape end
// (PH-10 RH-40 NR-9 SP-1, vertical): the three envelope algorithms against
// every simple algorithm.
func Fig8(o Options) (*Figure, error) { return runPlan(o, planFig8) }

func planFig8(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig8",
		Title:     "Relative performance of scheduling algorithms with replication (PH-10 RH-40 NR-9 SP-1)",
		ParamName: intensityName(o),
	}}
	for _, a := range tapejuke.Algorithms() {
		p.jobs = append(p.jobs, series(o, string(a), func(c *tapejuke.Config) {
			c.Algorithm = a
			fullReplication(c)
		})...)
	}
	return p, nil
}

// Fig9 studies the importance of skew: RH from 20 to 80 percent, with no
// replication (SP-0) and full replication (SP-1), both under the
// max-bandwidth envelope algorithm.
func Fig9(o Options) (*Figure, error) { return runPlan(o, planFig9) }

func planFig9(o Options) (plan, error) {
	p := plan{fig: Figure{
		ID:        "fig9",
		Title:     "The relationship between skew and performance improvements (PH-10, envelope-max-bandwidth)",
		ParamName: intensityName(o),
	}}
	for _, rh := range []float64{20, 40, 60, 80} {
		skew := func(c *tapejuke.Config) {
			c.Algorithm = tapejuke.EnvelopeMaxBandwidth
			c.ReadHotPercent = rh
		}
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("RH-%.0f-norepl", rh), skew)...)
		p.jobs = append(p.jobs, series(o, fmt.Sprintf("RH-%.0f-full", rh), func(c *tapejuke.Config) {
			skew(c)
			fullReplication(c)
		})...)
	}
	return p, nil
}

// Fig10a tabulates the storage expansion factor E = 1 + NR*PH/100 as a
// function of the replica count for several hot fractions. Analytic.
func Fig10a(o Options) (*Figure, error) { return runPlan(o, planFig10a) }

func planFig10a(Options) (plan, error) {
	return plan{
		fig: Figure{
			ID:        "fig10a",
			Title:     "Storage expansion factor of replication",
			ParamName: "replicas",
			ValueName: "expansion_factor",
		},
		finish: func(f *Figure) error {
			for _, ph := range []float64{5, 10, 20, 30} {
				for nr := 0; nr <= 9; nr++ {
					cfg := tapejuke.Config{HotPercent: ph, Replicas: nr}
					f.Rows = append(f.Rows, Row{
						Series: fmt.Sprintf("PH-%.0f", ph),
						Param:  float64(nr),
						Value:  cfg.ExpansionFactor(),
					})
				}
			}
			return nil
		},
	}, nil
}

// Fig10b computes the cost-performance ratio of replication versus no
// replication for NR in 0..9 at four skews (PH-10, queue 60 per
// non-replicated jukebox, scaled by 1/E for the replicated farm).
func Fig10b(o Options) (*Figure, error) { return runPlan(o, planFig10b) }

func planFig10b(o Options) (plan, error) {
	const baseQueue = 60
	p := plan{fig: Figure{
		ID:        "fig10b",
		Title:     "Cost-performance of replication vs. no replication (PH-10, queue 60/E)",
		ParamName: "replicas",
		ValueName: "cost_performance_ratio",
	}}
	for _, rh := range []float64{40, 60, 80, 95} {
		for nr := 0; nr <= 9; nr++ {
			cfg := base(o)
			cfg.Algorithm = tapejuke.EnvelopeMaxBandwidth
			cfg.ReadHotPercent = rh
			cfg.Replicas = nr
			if nr > 0 {
				cfg.Placement = tapejuke.Vertical
				cfg.StartPos = 1
			}
			q, err := tapejuke.ScaledQueueLength(baseQueue, cfg.ExpansionFactor())
			if err != nil {
				return plan{}, err
			}
			cfg.QueueLength = q
			cfg.MeanInterarrivalSec = 0
			p.jobs = append(p.jobs, job{series: fmt.Sprintf("RH-%.0f", rh), param: float64(nr), cfg: cfg})
		}
	}
	// Each skew's series starts at NR-0, the baseline its ratios divide by.
	p.finish = func(f *Figure) error {
		var baseT float64
		for i, r := range f.Rows {
			if r.Param == 0 {
				baseT = r.ThroughputKBps
			}
			if baseT <= 0 {
				return fmt.Errorf("figures: missing baseline for %s", r.Series)
			}
			f.Rows[i].Value = r.ThroughputKBps / baseT
		}
		return nil
	}
	return p, nil
}

func intensityName(o Options) string {
	if o.Open {
		return "mean_interarrival_s"
	}
	return "queue_length"
}
