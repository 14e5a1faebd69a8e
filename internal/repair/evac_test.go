package repair

import (
	"math/rand"
	"testing"

	"tapejuke/internal/layout"
)

func TestEnqueueEvacuation(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	pl := jk.planner(Config{}, NewHeat(jk.lay.NumBlocks(), 1000))

	b := layout.BlockID(0)
	from := jk.lay.Replicas(b)[0]
	live := pl.LiveCopies(b)
	j := pl.EnqueueEvacuation(b, from, 1)
	if j == nil {
		t.Fatal("EnqueueEvacuation returned nil for a live copy")
	}
	if j.Kind != KindEvacuate {
		t.Errorf("Kind = %d, want KindEvacuate", j.Kind)
	}
	if j.From != from {
		t.Errorf("From = %v, want %v", j.From, from)
	}
	if j.Want != live+1 {
		t.Errorf("Want = %d, want live+1 = %d (mint before remove)", j.Want, live+1)
	}

	// The planner dedups by block: one job per block, evacuation included.
	if pl.EnqueueEvacuation(b, from, 2) != nil {
		t.Error("second EnqueueEvacuation for the same block returned a job")
	}

	// A copy that is already dead has nothing to evacuate.
	b2 := layout.BlockID(1)
	c2 := jk.lay.Replicas(b2)[0]
	jk.kill(c2)
	if pl.EnqueueEvacuation(b2, c2, 3) != nil {
		t.Error("EnqueueEvacuation of a dead copy returned a job")
	}
}

func TestEvacuationDestFilter(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	pl := jk.planner(Config{}, NewHeat(jk.lay.NumBlocks(), 1000))
	b := layout.BlockID(0)
	from := jk.lay.Replicas(b)[0]

	// The destination filter keeps new copies off the suspect tape for
	// every job kind.
	pl.SetDestFilter(func(tp int) bool { return tp != from.Tape })
	j := pl.EnqueueEvacuation(b, from, 1)
	if j == nil {
		t.Fatal("EnqueueEvacuation returned nil")
	}
	if _, st := pl.PickSource(j, nil); st != SrcOK {
		t.Fatalf("PickSource status %d, want SrcOK", st)
	}
	pl.FinishRead(j)
	dst, ok := pl.ChooseDest(j, nil)
	if !ok {
		t.Fatal("ChooseDest found nothing with three tapes allowed")
	}
	if dst.Tape == from.Tape {
		t.Errorf("ChooseDest picked the filtered tape %d", dst.Tape)
	}
	pl.Abort(j)
	pl.Cancel(j)

	// A filter rejecting every tape leaves no feasible destination, so
	// nothing is enqueued in the first place.
	pl.SetDestFilter(func(int) bool { return false })
	if pl.EnqueueEvacuation(b, from, 2) != nil {
		t.Error("EnqueueEvacuation returned a job with no feasible destination")
	}
}

func TestEvacuationMoot(t *testing.T) {
	jk := newTestJuke(t, 4, 16, 1, 16)
	pl := jk.planner(Config{}, NewHeat(jk.lay.NumBlocks(), 1000))
	b := layout.BlockID(0)
	from := jk.lay.Replicas(b)[0]
	j := pl.EnqueueEvacuation(b, from, 1)
	if j == nil {
		t.Fatal("EnqueueEvacuation returned nil")
	}
	if pl.EvacMoot(j) {
		t.Fatal("fresh evacuation job reported moot")
	}
	// The copy to vacate dies on its own: evacuation has no purpose left
	// and plain repair owns the block now.
	jk.kill(from)
	if !pl.EvacMoot(j) {
		t.Error("EvacMoot = false for a dead From copy")
	}
	if _, st := pl.PickSource(j, nil); st != SrcDone {
		t.Errorf("PickSource status %d for a moot job, want SrcDone", st)
	}
	pl.Cancel(j)
	if len(pl.jobs) != 0 {
		t.Errorf("Active = %d after cancelling the moot job", len(pl.jobs))
	}
}

// evacKillResumeCase runs one randomized evacuation kill/resume scenario: a
// suspect tape is drained through the job machinery while jobs are killed at
// arbitrary step boundaries, From copies die under active jobs, and copy
// removals are vetoed and retried. Invariants: a job's step never regresses,
// no block ever holds fewer live copies than before its evacuation started
// (mint before remove), destinations never land on the suspect tape, and
// when the table drains no reservation is left behind and every live copy
// is off the suspect tape.
func evacKillResumeCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	tapes := 4 + rng.Intn(4)
	capBlocks := 12 + rng.Intn(8)
	nr := 1 + rng.Intn(2)
	blocks := tapes * capBlocks / 4
	jk := newTestJuke(t, tapes, capBlocks, nr, blocks)
	pl := jk.planner(Config{}, NewHeat(blocks, 500))

	suspect := rng.Intn(tapes)
	pl.SetDestFilter(func(tp int) bool { return tp != suspect })

	preLive := make(map[layout.BlockID]int)
	for b := 0; b < blocks; b++ {
		preLive[layout.BlockID(b)] = pl.LiveCopies(layout.BlockID(b))
	}
	killedFrom := make(map[layout.BlockID]bool)

	step := make(map[int64]Step)
	checkMonotone := func(now float64) {
		t.Helper()
		for _, j := range ranked(pl, now) {
			if prev, ok := step[j.ID]; ok && j.Step < prev {
				t.Fatalf("seed %d: job %d regressed from step %d to %d", seed, j.ID, prev, j.Step)
			}
			step[j.ID] = j.Step
		}
	}
	checkFloor := func(b layout.BlockID) {
		t.Helper()
		floor := preLive[b]
		if killedFrom[b] {
			floor--
		}
		if live := pl.LiveCopies(b); live < floor {
			t.Fatalf("seed %d: block %d fell to %d live copies (pre-evacuation %d, fromDead=%v)",
				seed, b, live, preLive[b], killedFrom[b])
		}
	}

	var pending []layout.Replica // vetoed removals, with their block implied by position
	pendingBlock := make(map[layout.Replica]layout.BlockID)
	tryRemove := func(b layout.BlockID, from layout.Replica, veto bool) {
		if jk.isDead(from) {
			return // moot: plain repair owns the dead copy now
		}
		if c, ok := jk.lay.ReplicaOn(b, from.Tape); !ok || c.Pos != from.Pos {
			return // already removed
		}
		if veto {
			if _, dup := pendingBlock[from]; !dup {
				pending = append(pending, from)
				pendingBlock[from] = b
			}
			return
		}
		if err := jk.lay.RemoveCopy(b, from.Tape); err != nil {
			t.Fatalf("seed %d: RemoveCopy after minting: %v", seed, err)
		}
		checkFloor(b)
	}
	retryPending := func(veto bool) {
		kept := pending[:0]
		for _, from := range pending {
			b := pendingBlock[from]
			if veto && rng.Intn(2) == 0 {
				kept = append(kept, from)
				continue
			}
			delete(pendingBlock, from)
			tryRemove(b, from, false)
		}
		pending = kept
	}

	now := 0.0
	for iter := 0; iter < 150; iter++ {
		now += rng.Float64() * 20

		// Nominate more of the suspect tape's contents (the planner dedups).
		if slots := jk.lay.TapeContents(suspect); len(slots) > 0 {
			s := slots[rng.Intn(len(slots))]
			from := layout.Replica{Tape: suspect, Pos: s.Pos}
			if !jk.isDead(from) {
				pl.EnqueueEvacuation(s.Block, from, now)
			}
		}
		// Occasionally the From copy dies under an active job, mooting it.
		if jobs := ranked(pl, now); len(jobs) > 0 && rng.Intn(8) == 0 {
			j := jobs[rng.Intn(len(jobs))]
			if j.Kind == KindEvacuate && !jk.isDead(j.From) {
				jk.kill(j.From)
				killedFrom[j.Block] = true
			}
		}
		if rng.Intn(4) == 0 {
			retryPending(true)
		}

		jobs := ranked(pl, now)
		if len(jobs) == 0 {
			continue
		}
		j := jobs[rng.Intn(len(jobs))]
		if rng.Intn(3) == 0 {
			checkMonotone(now) // killed: preempted before issuing this step
			continue
		}
		switch j.Step {
		case StepRead:
			_, st := pl.PickSource(j, nil)
			switch st {
			case SrcOK:
				pl.FinishRead(j)
			case SrcGone, SrcDone:
				pl.Cancel(j)
			}
		case StepWrite:
			if pl.EvacMoot(j) {
				pl.Cancel(j)
				break
			}
			dst, ok := pl.ChooseDest(j, nil)
			if !ok {
				break
			}
			if dst.Tape == suspect {
				t.Fatalf("seed %d: evacuation chose the suspect tape as destination", seed)
			}
			if rng.Intn(5) == 0 {
				pl.Abort(j)
				break
			}
			b, from := j.Block, j.From
			if _, err := pl.Commit(j, now); err != nil {
				t.Fatalf("seed %d: Commit: %v", seed, err)
			}
			tryRemove(b, from, rng.Intn(3) == 0)
			if err := jk.lay.Validate(); err != nil {
				t.Fatalf("seed %d: Validate after commit: %v", seed, err)
			}
		}
		checkMonotone(now)
	}

	// Drain: complete every remaining job and flush the vetoed removals.
	noDest := make(map[layout.BlockID]bool) // no feasible destination remained
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
		if _, ok := pl.ChooseDest(j, nil); !ok {
			noDest[j.Block] = true
			pl.Cancel(j)
			continue
		}
		b, from := j.Block, j.From
		if _, err := pl.Commit(j, now); err != nil {
			t.Fatalf("seed %d: drain Commit: %v", seed, err)
		}
		tryRemove(b, from, false)
	}
	retryPending(false)

	if pl.ReservedCount() != 0 {
		t.Fatalf("seed %d: %d reservations leaked after drain", seed, pl.ReservedCount())
	}
	if len(pl.jobs) != 0 {
		t.Fatalf("seed %d: %d jobs leaked after drain", seed, len(pl.jobs))
	}
	if err := jk.lay.Validate(); err != nil {
		t.Fatalf("seed %d: final Validate: %v", seed, err)
	}
	for b := 0; b < blocks; b++ {
		checkFloor(layout.BlockID(b))
	}
	// Every copy still on the suspect tape is one evacuation could not own:
	// a copy that died before its replacement landed, or a block with no
	// feasible destination left.
	for _, s := range jk.lay.TapeContents(suspect) {
		if !jk.isDead(layout.Replica{Tape: suspect, Pos: s.Pos}) && !noDest[s.Block] {
			t.Fatalf("seed %d: live copy of block %d left on the suspect tape after drain", seed, s.Block)
		}
	}
}

// TestEvacKillResumeSeeded runs the evacuation kill/resume scenario across
// many seeds.
func TestEvacKillResumeSeeded(t *testing.T) {
	if testing.Short() {
		t.Skip("long fuzz loop")
	}
	for seed := int64(0); seed < 300; seed++ {
		evacKillResumeCase(t, seed)
	}
}

func FuzzEvacKillResume(f *testing.F) {
	for s := int64(0); s < 8; s++ {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		evacKillResumeCase(t, seed)
	})
}
