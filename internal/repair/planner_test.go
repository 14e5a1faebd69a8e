package repair

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"tapejuke/internal/layout"
)

func TestHeatDecay(t *testing.T) {
	h := NewHeat(2, 100)
	h.Touch(0, 0)
	if got := h.At(0, 0); got != 1 {
		t.Fatalf("heat at touch time = %v, want 1", got)
	}
	if got := h.At(0, 100); got < 0.49 || got > 0.51 {
		t.Errorf("heat after one half-life = %v, want ~0.5", got)
	}
	if got := h.At(1, 1000); got != 0 {
		t.Errorf("untouched block heat = %v, want 0", got)
	}
	// A non-positive half-life disables decay.
	raw := NewHeat(1, 0)
	raw.Touch(0, 0)
	raw.Touch(0, 500)
	if got := raw.At(0, 10_000); got != 2 {
		t.Errorf("raw count = %v, want 2", got)
	}
}

// testJuke is the mutable liveness world the planner operates against.
type testJuke struct {
	lay  *layout.Layout
	down []bool
	dead layout.PosSet
}

func newTestJuke(t testing.TB, tapes, capBlocks, nr, blocks int) *testJuke {
	t.Helper()
	lay, err := layout.Build(layout.Config{
		Tapes: tapes, TapeCapBlocks: capBlocks, HotPercent: 50,
		Replicas: nr, DataBlocks: blocks,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return &testJuke{lay: lay, down: make([]bool, tapes), dead: layout.NewPosSet(tapes, capBlocks)}
}

// isDead reports whether copy c is marked dead; kill marks it.
func (j *testJuke) isDead(c layout.Replica) bool { return j.dead.Has(c.Tape, c.Pos) }
func (j *testJuke) kill(c layout.Replica)        { j.dead.Add(c.Tape, c.Pos) }

func (j *testJuke) planner(cfg Config, heat *Heat) *Planner {
	return New(j.lay, heat, cfg, j.down, &j.dead)
}

// ranked drains the planner's hottest-first order at now into a fresh
// slice: the order an idle drive visits the jobs in.
func ranked(p *Planner, now float64) []*Job {
	p.Rank(now)
	var jobs []*Job
	for j := p.Next(); j != nil; j = p.Next() {
		jobs = append(jobs, j)
	}
	return jobs
}

// refHeat is Heat without the decay-factor memo: the formula the memoized
// decay must reproduce bit for bit.
type refHeat struct {
	halfLife     float64
	count, stamp []float64
}

func (h *refHeat) at(b int, now float64) float64 {
	if h.halfLife > 0 {
		if dt := now - h.stamp[b]; dt > 0 {
			h.count[b] *= math.Exp2(-dt / h.halfLife)
		}
		h.stamp[b] = now
	}
	return h.count[b]
}

func (h *refHeat) touch(b int, now float64) {
	h.at(b, now)
	h.count[b]++
}

// referenceRanked is the full stable sort that lazy ranking replaced: it
// re-decays both heats on every comparison, so it decays every job's block
// when there are two or more jobs and none when there is one.
func referenceRanked(jobs []*Job, h *refHeat, now float64) []*Job {
	out := append([]*Job(nil), jobs...)
	sort.SliceStable(out, func(i, j int) bool {
		hi := h.at(int(out[i].Block), now)
		hj := h.at(int(out[j].Block), now)
		if hi != hj {
			return hi > hj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// rankCase checks lazy ranking against the reference sort over one random
// history: same visit order, and bit-identical heat counts and stamps
// afterwards. The lower half of the blocks is touched in pairs so equal
// heats tie, many blocks are never touched so zero heats tie, and `now`
// often repeats.
func rankCase(t *testing.T, seed int64, maxJobs int, halfLife float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	jk := newTestJuke(t, 6, 64, 1, 96)
	blocks := jk.lay.NumBlocks()
	heat := NewHeat(blocks, halfLife)
	ref := &refHeat{halfLife: halfLife, count: make([]float64, blocks), stamp: make([]float64, blocks)}
	pl := jk.planner(Config{}, heat)
	touch := func(b int, now float64) {
		heat.Touch(b, now)
		ref.touch(b, now)
	}
	// enqueue adds a promotion-style job for a random uncovered block.
	enqueue := func(now float64) {
		b := layout.BlockID(rng.Intn(blocks))
		pl.enqueue(b, now, pl.Base(b)+1)
	}

	now := 0.0
	for round := 0; round < 40; round++ {
		if rng.Intn(3) > 0 { // otherwise rank again at the same now
			now += float64(1 + rng.Intn(50))
		}
		for k := rng.Intn(6); k > 0; k-- {
			if b := rng.Intn(blocks); b < blocks/2 {
				// Blocks 2i and 2i+1 are always touched together, so
				// their heats tie.
				b &^= 1
				touch(b, now)
				touch(b+1, now)
			} else {
				touch(b, now)
			}
		}
		for len(pl.jobs) < maxJobs && rng.Intn(4) > 0 {
			enqueue(now)
		}
		if len(pl.jobs) > 0 && rng.Intn(3) == 0 {
			pl.Cancel(pl.jobs[rng.Intn(len(pl.jobs))])
		}

		want := referenceRanked(pl.jobs, ref, now)
		pl.Rank(now)
		var got []*Job
		for j := pl.Next(); j != nil; j = pl.Next() {
			got = append(got, j)
			// Jobs cancelled or enqueued mid-visit leave the snapshot alone.
			if rng.Intn(4) == 0 {
				pl.Cancel(j)
				enqueue(now)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d round %d: ranked %d jobs, want %d", seed, round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d round %d: position %d is job %d, want job %d",
					seed, round, i, got[i].ID, want[i].ID)
			}
		}
		for b := 0; b < blocks; b++ {
			if math.Float64bits(heat.count[b]) != math.Float64bits(ref.count[b]) ||
				math.Float64bits(heat.stamp[b]) != math.Float64bits(ref.stamp[b]) {
				t.Fatalf("seed %d round %d: block %d heat (%v @ %v), want (%v @ %v)",
					seed, round, b, heat.count[b], heat.stamp[b], ref.count[b], ref.stamp[b])
			}
		}
	}
}

// TestRankMatchesStableSort pins the lazy heap ranking to the stable sort
// it replaced, over job tables of at most 0, 1, 2, a few and many jobs
// (past the sort's 20-element insertion blocks), with decay on and off.
func TestRankMatchesStableSort(t *testing.T) {
	for _, maxJobs := range []int{0, 1, 2, 3, 21, 45} {
		for _, halfLife := range []float64{0, 37, 1000} {
			for seed := int64(0); seed < 25; seed++ {
				rankCase(t, seed, maxJobs, halfLife)
			}
		}
	}
}

// driveJob runs one full, uninterrupted repair cycle for the hottest job.
func driveJob(t *testing.T, jk *testJuke, pl *Planner, now float64) {
	t.Helper()
	jobs := ranked(pl, now)
	if len(jobs) == 0 {
		t.Fatal("no job to drive")
	}
	j := jobs[0]
	if _, st := pl.PickSource(j, nil); st != SrcOK {
		t.Fatalf("PickSource status %d, want SrcOK", st)
	}
	pl.FinishRead(j)
	if _, ok := pl.ChooseDest(j, func(tp int) bool { return !jk.down[tp] }); !ok {
		t.Fatal("ChooseDest found nothing")
	}
	if _, err := pl.Commit(j, now); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

func TestPlannerRepairsTapeFailure(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	pl := jk.planner(Config{}, NewHeat(jk.lay.NumBlocks(), 1000))

	victim := 0
	lost := len(jk.lay.TapeContents(victim))
	if lost == 0 {
		t.Fatal("tape 0 holds nothing")
	}
	jk.down[victim] = true
	pl.NoteTapeFail(victim, 10)

	// Every block that kept at least one live copy and fell under its base
	// count gets a job; blocks whose only copy died are beyond repair.
	for len(pl.jobs) > 0 {
		driveJob(t, jk, pl, 20)
	}
	if pl.Created() == 0 {
		t.Fatal("tape failure enqueued no jobs")
	}
	for b := 0; b < jk.lay.NumBlocks(); b++ {
		blk := layout.BlockID(b)
		live, base := pl.LiveCopies(blk), pl.Base(blk)
		hadLive := false
		for _, c := range jk.lay.Replicas(blk) {
			if c.Tape != victim {
				hadLive = true
			}
		}
		if hadLive && live < base {
			t.Errorf("block %d: %d live copies after repair, want >= %d", b, live, base)
		}
	}
	if err := jk.lay.Validate(); err != nil {
		t.Errorf("Validate after repair: %v", err)
	}
	if pl.ReservedCount() != 0 {
		t.Errorf("leaked %d reservations", pl.ReservedCount())
	}
}

func TestPlannerPromoteAndReclaim(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	heat := NewHeat(jk.lay.NumBlocks(), 1e12) // effectively no decay
	pl := jk.planner(Config{MaxCopies: 3, PromoteHeat: 3, ReclaimHeat: 0.5, ScanRate: 64}, heat)

	hot := layout.BlockID(jk.lay.NumHot()) // a cold block with one copy
	for i := 0; i < 5; i++ {
		heat.Touch(int(hot), float64(i))
	}
	pl.Scan(10, func(layout.BlockID, layout.Replica) bool { return true })
	if len(pl.jobs) != 1 {
		t.Fatalf("Active = %d after hot scan, want 1 promote job", len(pl.jobs))
	}
	driveJob(t, jk, pl, 20)
	if got := pl.LiveCopies(hot); got != 2 {
		t.Fatalf("promoted block has %d live copies, want 2", got)
	}

	// A fresh planner (whose base is captured after a copy death) repairs
	// under-replicated blocks through the scan path, independent of heat.
	cold := jk.planner(Config{ScanRate: 64}, NewHeat(jk.lay.NumBlocks(), 1000))
	cs := jk.lay.Replicas(hot)
	jk.kill(cs[1])
	cold.Scan(30, func(layout.BlockID, layout.Replica) bool { return true })
	if len(cold.jobs) != 1 {
		t.Fatalf("scan did not enqueue repair for under-replicated block (Active=%d)", len(cold.jobs))
	}
}

func TestScanReclaimsColdExcess(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	// Capture base, then mint an extra copy so live > base.
	pl := jk.planner(Config{ReclaimHeat: 0.5, ScanRate: 64}, NewHeat(jk.lay.NumBlocks(), 1000))
	b := layout.BlockID(jk.lay.NumHot())
	dst := -1
	for tp := 0; tp < jk.lay.Tapes(); tp++ {
		if _, ok := jk.lay.ReplicaOn(b, tp); !ok {
			dst = tp
			break
		}
	}
	pos := jk.lay.FirstFree(dst, nil)
	if err := jk.lay.AddCopy(b, dst, pos); err != nil {
		t.Fatalf("AddCopy: %v", err)
	}
	var got []layout.Replica
	pl.Scan(10, func(blk layout.BlockID, c layout.Replica) bool {
		if blk != b {
			t.Errorf("nominated block %d, want %d", blk, b)
		}
		got = append(got, c)
		if err := jk.lay.RemoveCopy(blk, c.Tape); err != nil {
			t.Fatalf("RemoveCopy: %v", err)
		}
		return true
	})
	if len(got) != 1 {
		t.Fatalf("reclaimed %d copies, want 1", len(got))
	}
	if got[0].Tape != dst || got[0].Pos != pos {
		t.Errorf("reclaimed %v, want the minted excess copy {%d %d}", got[0], dst, pos)
	}
	if err := jk.lay.Validate(); err != nil {
		t.Errorf("Validate after reclaim: %v", err)
	}
}

// killResumeCase runs one randomized kill/resume scenario: jobs are
// interrupted at arbitrary step boundaries (abandoned, aborted after an
// issued write, raced by new failures) and must stay monotone -- a job's
// step never regresses, no duplicate copy is ever minted, and when the
// table drains no reservation is left behind.
func killResumeCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tapes := 4 + rng.Intn(4)
	capBlocks := 12 + rng.Intn(8)
	nr := 1 + rng.Intn(2)
	blocks := tapes * capBlocks / 4
	jk := newTestJuke(t, tapes, capBlocks, nr, blocks)
	heat := NewHeat(blocks, 500)
	pl := jk.planner(Config{MaxCopies: nr + 2, PromoteHeat: 4, ReclaimHeat: 0.1, ScanRate: 8}, heat)

	step := make(map[int64]Step) // high-water step per job ID
	lastID := int64(0)
	now := 0.0

	checkMonotone := func() {
		t.Helper()
		for _, j := range ranked(pl, now) {
			if prev, ok := step[j.ID]; ok && j.Step < prev {
				t.Fatalf("seed %d: job %d regressed from step %d to %d", seed, j.ID, prev, j.Step)
			}
			if j.ID <= lastID-int64(len(pl.jobs))-100 {
				t.Fatalf("seed %d: stale job %d reappeared", seed, j.ID)
			}
			step[j.ID] = j.Step
			if j.ID > lastID {
				lastID = j.ID
			}
		}
	}

	reclaim := func(b layout.BlockID, c layout.Replica) bool {
		if rng.Intn(2) == 0 {
			return false // engine veto: copy in use
		}
		if err := jk.lay.RemoveCopy(b, c.Tape); err != nil {
			t.Fatalf("seed %d: reclaim RemoveCopy: %v", seed, err)
		}
		return true
	}

	upTapes := func() int {
		n := 0
		for _, d := range jk.down {
			if !d {
				n++
			}
		}
		return n
	}

	for iter := 0; iter < 120; iter++ {
		now += rng.Float64() * 20
		heat.Touch(rng.Intn(blocks), now)

		switch rng.Intn(10) {
		case 0: // tape failure
			if upTapes() > 1 {
				tp := rng.Intn(tapes)
				if !jk.down[tp] {
					jk.down[tp] = true
					pl.NoteTapeFail(tp, now)
				}
			}
		case 1: // single copy death
			b := layout.BlockID(rng.Intn(blocks))
			cs := jk.lay.Replicas(b)
			c := cs[rng.Intn(len(cs))]
			if !jk.isDead(c) {
				jk.kill(c)
				pl.NoteCopyDead(c.Tape, c.Pos, now)
			}
		case 2:
			pl.Scan(now, reclaim)
		}

		jobs := ranked(pl, now)
		if len(jobs) == 0 {
			continue
		}
		j := jobs[rng.Intn(len(jobs))]
		if rng.Intn(3) == 0 {
			// Kill: the drive was preempted before issuing this step.
			checkMonotone()
			continue
		}
		switch j.Step {
		case StepRead:
			var filter func(layout.Replica) bool
			if rng.Intn(3) == 0 {
				busy := rng.Intn(tapes)
				filter = func(c layout.Replica) bool { return c.Tape != busy }
			}
			_, st := pl.PickSource(j, filter)
			switch st {
			case SrcOK:
				pl.FinishRead(j)
			case SrcGone, SrcDone:
				pl.Cancel(j)
			case SrcBusy:
				// resume later
			}
		case StepWrite:
			dst, ok := pl.ChooseDest(j, func(tp int) bool { return !jk.down[tp] })
			if !ok {
				continue
			}
			switch rng.Intn(5) {
			case 0:
				// Destination died between issue and settle: abort.
				pl.Abort(j)
				if j.Reserved {
					t.Fatalf("seed %d: reservation survived Abort", seed)
				}
				if j.Step != StepWrite {
					t.Fatalf("seed %d: Abort changed step to %d", seed, j.Step)
				}
			case 1:
				// The whole tape died mid-write: mark it down, then abort.
				jk.down[dst.Tape] = true
				pl.NoteTapeFail(dst.Tape, now)
				pl.Abort(j)
			default:
				if _, err := pl.Commit(j, now); err != nil {
					t.Fatalf("seed %d: Commit: %v", seed, err)
				}
				if err := jk.lay.Validate(); err != nil {
					t.Fatalf("seed %d: Validate after commit: %v", seed, err)
				}
			}
		}
		checkMonotone()
	}

	// Drain: run every remaining job to completion or cancellation.
	for guard := 0; len(pl.jobs) > 0 && guard < 10*blocks; guard++ {
		j := ranked(pl, now)[0]
		now++
		_, st := pl.PickSource(j, nil)
		switch st {
		case SrcGone, SrcDone:
			pl.Cancel(j)
			continue
		case SrcOK:
		}
		if j.Step == StepRead {
			pl.FinishRead(j)
		}
		if _, ok := pl.ChooseDest(j, func(tp int) bool { return !jk.down[tp] }); !ok {
			pl.Cancel(j) // no feasible destination remains
			continue
		}
		if _, err := pl.Commit(j, now); err != nil {
			t.Fatalf("seed %d: drain Commit: %v", seed, err)
		}
	}
	for _, j := range ranked(pl, now) {
		pl.Cancel(j)
	}
	if pl.ReservedCount() != 0 {
		t.Fatalf("seed %d: %d reservations leaked after drain", seed, pl.ReservedCount())
	}
	if len(pl.jobs) != 0 {
		t.Fatalf("seed %d: %d jobs leaked after drain", seed, len(pl.jobs))
	}
	if err := jk.lay.Validate(); err != nil {
		t.Fatalf("seed %d: final Validate: %v", seed, err)
	}
}

// TestKillResumeSeeded runs the kill/resume scenario across 600 seeds,
// covering the >= 500 interruption cases the acceptance criteria require.
func TestKillResumeSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz loop")
	}
	for seed := int64(0); seed < 600; seed++ {
		killResumeCase(t, seed)
	}
}

func FuzzKillResume(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		killResumeCase(t, seed)
	})
}
