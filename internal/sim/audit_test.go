package sim

import (
	"errors"
	"fmt"
	"testing"

	"tapejuke/internal/core"
	"tapejuke/internal/faults"
	"tapejuke/internal/sched"
)

// verifyBusy checks the busy-vector hygiene invariants of a multi-drive
// run: every mounted (or loading) tape is busy, no tape is mounted twice,
// and every busy tape is accounted for by exactly one drive (a release
// happens exactly once). A single drive keeps no busy vector.
func verifyBusy(e *engine) error {
	if e.sh.Busy == nil {
		return nil
	}
	owners := make(map[int]int)
	for d := range e.drives {
		t := e.drives[d].st.Mounted
		if t < 0 {
			continue
		}
		if prev, dup := owners[t]; dup {
			return fmt.Errorf("sim: tape %d mounted in drives %d and %d", t, prev, d)
		}
		owners[t] = d
		if !e.sh.Busy[t] {
			return fmt.Errorf("sim: tape %d mounted in drive %d but not busy", t, d)
		}
	}
	busyCount := 0
	for t := range e.sh.Busy {
		if e.sh.Busy[t] {
			busyCount++
		}
	}
	if busyCount != len(owners) {
		return fmt.Errorf("sim: %d busy tapes but %d mounted drives", busyCount, len(owners))
	}
	return nil
}

// placeAudit checks the request lifecycle: each request on the pending
// list or in a sweep is Queued, each drive's in-flight read is InFlight and
// each limbo entry is Limbo or Gone; no request is held in two places or
// held while on the free list; the held requests that are not Gone number
// exactly outstanding; and the deadline calendar holds only those
// requests, each at the index its slot records. It tallies the limbo
// entries it saw, so a test can tell that its runs reached the limbo.
type placeAudit struct {
	held        map[*sched.Request]holder
	limbo, gone int
}

// holder names where a request is held: the pending list (drive -1), or a
// drive's sweep, read or limbo.
type holder struct {
	drive int
	what  string
}

func (h holder) String() string {
	if h.drive < 0 {
		return "the pending list"
	}
	return fmt.Sprintf("drive %d's %s", h.drive, h.what)
}

func (a *placeAudit) check(e *engine) error {
	clear(a.held)
	hold := func(r *sched.Request, h holder, ok bool) error {
		if prev, dup := a.held[r]; dup {
			return fmt.Errorf("sim: request %d held in %v and in %v", r.ID, prev, h)
		}
		a.held[r] = h
		if !ok {
			return fmt.Errorf("sim: request %d in %v has place %d", r.ID, h, r.Place)
		}
		return nil
	}
	for _, r := range e.sh.Pending {
		if err := hold(r, holder{-1, "pending"}, r.Place == sched.Queued); err != nil {
			return err
		}
	}
	for d := range e.drives {
		dr := &e.drives[d]
		if dr.st.Active != nil {
			for _, r := range dr.st.Active.Requests() {
				if err := hold(r, holder{d, "sweep"}, r.Place == sched.Queued); err != nil {
					return err
				}
			}
		}
		if r := dr.inFlight; r != nil {
			if err := hold(r, holder{d, "read"}, r.Place == sched.InFlight); err != nil {
				return err
			}
		}
		for _, r := range dr.limbo {
			ok := r.Place == sched.Limbo || r.Place == sched.Gone
			if err := hold(r, holder{d, "limbo"}, ok); err != nil {
				return err
			}
			a.limbo++
			if r.Place == sched.Gone {
				a.gone++
			}
		}
	}
	for _, r := range e.reqFree {
		if h, ok := a.held[r]; ok {
			return fmt.Errorf("sim: request %d is on the free list and in %v", r.ID, h)
		}
	}
	live := int64(0)
	for r := range a.held {
		if r.Place != sched.Gone {
			live++
		}
	}
	if live != e.outstanding {
		return fmt.Errorf("sim: %d requests held, %d outstanding", live, e.outstanding)
	}
	if e.ovl != nil {
		for i, r := range e.ovl.dl {
			if _, ok := a.held[r]; !ok || r.Place == sched.Gone {
				return fmt.Errorf("sim: calendar entry %d (request %d, deadline %v) has left the system",
					i, r.ID, r.Deadline)
			}
			if r.DeadlineSlot != int32(i+1) {
				return fmt.Errorf("sim: calendar entry %d records slot %d", i, r.DeadlineSlot)
			}
		}
	}
	return nil
}

// setStepAudit turns on the busy-vector and request-place checks at every
// kernel step until the test ends, and returns the place audit.
func setStepAudit(t *testing.T) *placeAudit {
	a := &placeAudit{held: make(map[*sched.Request]holder)}
	stepAudit = func(e *engine) error {
		if err := verifyBusy(e); err != nil {
			return err
		}
		return a.check(e)
	}
	t.Cleanup(func() { stepAudit = nil })
	return a
}

// namedCfg is one configuration of a table-driven engine test.
type namedCfg struct {
	name string
	cfg  Config
}

// runAudited runs each configuration with the step audit on, audits the
// state the run ends in too, and hands the result to check. It returns the
// place audit with its tallies over every run.
func runAudited(t *testing.T, cfgs []namedCfg, check func(t *testing.T, cfg Config, res *Result)) *placeAudit {
	a := setStepAudit(t)
	for _, c := range cfgs {
		t.Run(c.name, func(t *testing.T) {
			e, err := newEngine(c.cfg, NewSession())
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.run()
			if err != nil {
				t.Fatal(err)
			}
			if err := stepAudit(e); err != nil {
				t.Fatalf("at the end of the run: %v", err)
			}
			check(t, c.cfg, res)
		})
	}
	return a
}

// populationCfgs are closed-model runs (queue 40, NR 0, 1M s, seed 7) whose
// flash crowd at 50,000 s meets an exit that used to respawn wrongly: the
// 200 extras of the first run find bad-block ranges and some leave
// unserviceable, and the 100 extras of the second overflow an admission
// bound that sheds the oldest pending request.
func populationCfgs() []namedCfg {
	flash := func(extras int, fc faults.Config) Config {
		cfg := faultCfg(0, fc)
		cfg.Burst = BurstConfig{Factor: 1, FlashAt: 50_000, FlashCount: extras}
		return cfg
	}
	unserviceable := flash(200, faults.Config{BadBlocksPerTape: 5, BadBlockRangeLen: 8})
	shed := flash(100, faults.Config{})
	shed.Admission = AdmissionConfig{MaxQueue: 45, Policy: AdmitShed}
	return []namedCfg{{"unserviceable", unserviceable}, {"shed", shed}}
}

// TestClosedPopulationInvariant: whichever exit its requests take, a
// closed model's flash crowd decays back to the configured population. An
// unserviceable extra must not respawn as a permanent process, and a shed
// process request must respawn as an expired one does.
func TestClosedPopulationInvariant(t *testing.T) {
	for _, c := range populationCfgs() {
		t.Run(c.name, func(t *testing.T) {
			res, err := Run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Unserviceable+res.Shed == 0 {
				t.Fatal("no request left unserviceable or shed; the case is vacuous")
			}
			if out := overloadOutstanding(res); out != int64(c.cfg.QueueLength) {
				t.Errorf("%d requests outstanding at the horizon, want the population of %d",
					out, c.cfg.QueueLength)
			}
		})
	}
}

// TestRequestPlaces runs the step audit over faultOverloadCases on one to
// three drives with drive failures, and over the population
// configurations; its steps must meet requests in limbo, Gone ones
// included. TestDeadlineCalendarHoldsOnlyLiveRequests runs the audit over
// its own configurations.
func TestRequestPlaces(t *testing.T) {
	var cfgs []namedCfg
	for _, tc := range faultOverloadCases {
		for drives := 1; drives <= 3; drives++ {
			cfg := faultOverloadCfg(11, tc.transient, 0, tc.badBlk, tc.tapeFail, 2,
				tc.hotTTL, tc.hotTTL/2, tc.policy, tc.maxQueue)
			cfg.Drives = drives
			cfg.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
			cfg.Faults.DriveMTBFSec = 40_000
			cfgs = append(cfgs, namedCfg{fmt.Sprintf("%s/%d-drive", tc.name, drives), cfg})
		}
	}
	cfgs = append(cfgs, populationCfgs()...)
	a := runAudited(t, cfgs, func(t *testing.T, cfg Config, res *Result) {
		if cfg.Faults.DriveMTBFSec > 0 && res.DriveFailures == 0 {
			t.Error("no drive failed; the drive-failure path went unaudited")
		}
	})
	if a.limbo == 0 || a.gone == 0 {
		t.Errorf("audited steps saw %d limbo entries, %d of them Gone; the limbo went unaudited", a.limbo, a.gone)
	}
}

// TestReclaimRecyclesEachRequestOnce stops a three-drive run at the first
// step where a drive holds a Gone request in limbo, and checks that
// Session.reclaim then returns every request the run held -- pending,
// swept, in flight and in limbo -- to the session's free list exactly
// once, beside the requests already free.
func TestReclaimRecyclesEachRequestOnce(t *testing.T) {
	a := setStepAudit(t)
	audit, errStop := stepAudit, errors.New("a drive holds a Gone request")
	stepAudit = func(e *engine) error {
		if err := audit(e); err != nil {
			return err
		}
		if a.gone > 0 {
			return errStop
		}
		return nil
	}
	tc := faultOverloadCases[len(faultOverloadCases)-1]
	cfg := faultOverloadCfg(11, tc.transient, 0, tc.badBlk, tc.tapeFail, 2,
		tc.hotTTL, tc.hotTTL/2, tc.policy, tc.maxQueue)
	cfg.Drives = 3
	cfg.SchedulerFactory = func() sched.Scheduler { return core.NewEnvelope(core.MaxBandwidth) }
	s := NewSession()
	e, err := newEngine(cfg, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.run(); !errors.Is(err, errStop) {
		t.Fatalf("run ended with %v before a drive held a Gone request", err)
	}
	want := len(e.reqFree) + len(a.held)
	s.reclaim(e)
	seen := make(map[*sched.Request]bool)
	for _, r := range s.reqFree {
		if seen[r] {
			t.Fatalf("request %d recycled twice", r.ID)
		}
		seen[r] = true
	}
	for r, h := range a.held {
		if !seen[r] {
			t.Errorf("request %d held in %v was not recycled", r.ID, h)
		}
	}
	if len(s.reqFree) != want {
		t.Errorf("free list holds %d requests, want %d", len(s.reqFree), want)
	}
}
