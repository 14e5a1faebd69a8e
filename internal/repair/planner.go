package repair

import (
	"cmp"
	"slices"

	"tapejuke/internal/layout"
)

// Step identifies the next action a repair job needs. A job is a two-step
// state machine -- read a surviving copy, then write the new one -- and
// the step only ever advances: an interrupted job resumes from its last
// completed step.
type Step uint8

const (
	StepRead  Step = iota // next action: read a surviving copy
	StepWrite             // read done; next action: write the new copy
)

// SrcStatus reports the outcome of source selection for a job's read step.
type SrcStatus uint8

const (
	SrcOK   SrcStatus = iota // a surviving copy was chosen
	SrcBusy                  // live copies exist but none is claimable right now
	SrcGone                  // no live copy anywhere: the block is beyond repair
	SrcDone                  // the block already has its target number of live copies
)

// Kind distinguishes why a job exists. Both kinds run the same read/write
// state machine; they differ only in what happens around it.
type Kind uint8

const (
	// KindRepair restores a lost copy (or promotes a hot block). On commit
	// the block is re-examined and a fresh job enqueued if still under
	// target.
	KindRepair Kind = iota
	// KindEvacuate moves a copy off a suspect tape: mint one extra copy
	// elsewhere first, then (engine-side, after the commit settles) remove
	// the copy at From. Mint-before-remove means the block never drops
	// below its pre-evacuation copy count, so an interrupted evacuation
	// degrades to a no-op plus at most one spare copy.
	KindEvacuate
)

// Job is one unit of re-replication work: mint exactly one new copy of
// Block. Jobs are identified by a monotone ID so traces and the verifier
// can match a write step to the read step that fed it.
type Job struct {
	ID    int64
	Kind  Kind
	Block layout.BlockID
	At    float64 // enqueue time: when the copy loss was discovered
	Want  int     // target number of live copies for the block
	Step  Step
	Src   layout.Replica // surviving copy chosen for the read step
	Dst   layout.Replica // reserved destination; valid while Reserved
	From  layout.Replica // evacuation only: the copy to vacate after commit
	// Reserved marks that Dst's position is held in the planner's
	// reservation table; it is released on commit, abort, and cancel
	// alike.
	Reserved bool
	// Busy marks the job's current step as executing on some drive: set
	// at issue, cleared when that operation settles. Other drives skip a
	// busy job, so a step is never double-issued (a second drive would
	// otherwise follow the first's reservation onto its busy tape).
	Busy bool
}

// Config configures the self-healing replication extension: whether it
// runs, the heat tracker's half-life, and the planner's promotion and
// reclamation policy. The zero value disables it.
type Config struct {
	// Enable turns the repair subsystem on.
	Enable bool
	// HalfLifeSec is the heat tracker's exponential-decay half-life in
	// simulated seconds. 0 means the simulator's 100,000 s default.
	HalfLifeSec float64
	// PromoteHeat, when positive, enqueues an extra copy for blocks whose
	// decayed heat reaches it (up to MaxCopies).
	PromoteHeat float64
	// ReclaimHeat, when positive, nominates excess copies of blocks whose
	// heat has fallen to or below it for reclamation.
	ReclaimHeat float64
	// MaxCopies caps the number of copies per block that promotion may
	// reach; 0 means the simulator's default of 1 + Replicas. Repair of
	// lost copies targets each block's build-time count regardless.
	MaxCopies int
	// ScanRate is the number of blocks the rotating promote/reclaim scan
	// inspects per idle visit. 0 means 64.
	ScanRate int
}

// Enabled reports whether the repair extension is active.
func (c Config) Enabled() bool { return c.Enable }

// Planner owns the repair job table. It mutates the layout only inside
// Commit (adding the minted copy); everything else is bookkeeping, so an
// interrupted job leaves no trace beyond its own entry.
type Planner struct {
	lay  *layout.Layout
	heat *Heat
	cfg  Config

	// down marks tapes discovered failed, which take no new copy, and dead
	// marks copies known unreadable, which neither serve a read nor take a
	// new copy. They are the engine's own tables, shared and never copied,
	// so the planner sees a failure the moment it is marked; nil means
	// nothing has failed.
	down []bool
	dead *layout.PosSet
	// destOK, when non-nil, further filters destination tapes for every
	// job kind (the health extension excludes suspect tapes: repairing
	// onto a tape queued for evacuation would be wasted motion).
	destOK func(tape int) bool

	jobs      []*Job           // active jobs in ID order
	blocks    []layout.BlockID // jobs[i].Block, so Rank reads no job
	byBlock   []*Job           // the job covering each block, nil when none
	base      []int32          // copies per block at construction time
	reserved  layout.PosSet    // positions held by an in-flight write
	nReserved int
	resByTape []int32
	nextID    int64
	cursor    int // rotating scan position
	created   int64

	// The last Rank's snapshot: its jobs in ID order and their heats.
	// snap views the job table until a drop would shift the table under
	// it; drop first copies it into snapBuf. first is the hottest job's
	// index, and top the same until the first Next returns that job (-1
	// after, and with no jobs). The second Next builds rank, a heap of the
	// other jobs' indices.
	snap     []*Job
	snapView bool
	snapBuf  []*Job
	heats    []float64
	rankedAt float64 // the last decaying Rank's time
	first    int
	top      int
	rank     []int32
	heaped   bool

	cands []destCand // scratch for ChooseDest
}

// destCand is a candidate destination tape with its unreserved capacity.
type destCand struct {
	tape, spare int
}

// New builds a planner over lay. down (indexed by tape) and dead are the
// liveness tables the planner reads, shared with their owner; either may
// be nil, meaning nothing has failed.
func New(lay *layout.Layout, heat *Heat, cfg Config, down []bool, dead *layout.PosSet) *Planner {
	if cfg.ScanRate <= 0 {
		cfg.ScanRate = 64
	}
	// A tape death enqueues a job per copy the tape held, so the job
	// table starts with room for the fullest tape's.
	room := 0
	for t := 0; t < lay.Tapes(); t++ {
		room = max(room, len(lay.TapeContents(t)))
	}
	p := &Planner{
		lay: lay, heat: heat, cfg: cfg, down: down, dead: dead,
		jobs:      make([]*Job, 0, room),
		blocks:    make([]layout.BlockID, 0, room),
		byBlock:   make([]*Job, lay.NumBlocks()),
		base:      make([]int32, lay.NumBlocks()),
		reserved:  layout.NewPosSet(lay.Tapes(), lay.TapeCap()),
		resByTape: make([]int32, lay.Tapes()),
		nextID:    1,
		top:       -1,
	}
	for b := range p.base {
		p.base[b] = int32(len(lay.Replicas(layout.BlockID(b))))
	}
	return p
}

// SetDestFilter installs (or clears, with nil) the destination-tape filter
// consulted by feasibility checks and ChooseDest for every job. Existing
// reservations are unaffected; a newly excluded tape simply receives no
// further reservations.
func (p *Planner) SetDestFilter(f func(tape int) bool) { p.destOK = f }

// tapeUp reports whether a tape may receive new copies at all (not
// discovered failed).
func (p *Planner) tapeUp(t int) bool { return p.down == nil || !p.down[t] }

// posOK reports whether a position may serve a read or hold a new copy
// (not a known dead copy).
func (p *Planner) posOK(t, pos int) bool { return p.dead == nil || !p.dead.Has(t, pos) }

// copyOK reports whether a physical copy is readable: its tape is up and
// the copy itself is not dead.
func (p *Planner) copyOK(c layout.Replica) bool { return p.tapeUp(c.Tape) && p.posOK(c.Tape, c.Pos) }

// LiveCopies counts block b's readable copies.
func (p *Planner) LiveCopies(b layout.BlockID) int {
	n := 0
	for _, c := range p.lay.Replicas(b) {
		if p.copyOK(c) {
			n++
		}
	}
	return n
}

// Base returns block b's copy count at planner construction: the target
// that loss-driven repair restores.
func (p *Planner) Base(b layout.BlockID) int { return int(p.base[b]) }

// Created returns the total number of jobs ever enqueued.
func (p *Planner) Created() int64 { return p.created }

// ReservedCount returns the number of outstanding destination
// reservations; it must be zero once the job table drains (leaked scratch
// state otherwise).
func (p *Planner) ReservedCount() int { return p.nReserved }

// Feasible reports whether some up tape could receive a new copy of j's
// block right now: no existing copy there and spare capacity beyond the
// outstanding reservations. Jobs that fail this are cancelled instead of
// lingering; the rotating scan re-enqueues the block if capacity frees up
// (reclaim) while it is still under-replicated.
func (p *Planner) Feasible(j *Job) bool { return p.hasDest(j.Block) }

func (p *Planner) hasDest(b layout.BlockID) bool {
	for t := 0; t < p.lay.Tapes(); t++ {
		if !p.tapeUp(t) || (p.destOK != nil && !p.destOK(t)) {
			continue
		}
		if _, dup := p.lay.ReplicaOn(b, t); dup {
			continue
		}
		if p.lay.FreeBlocks(t)-int(p.resByTape[t]) > 0 {
			return true
		}
	}
	return false
}

// enqueue creates a job targeting `want` live copies of b, if one is
// worthwhile: no job already covers b, at least one copy survives, the
// block is below target, and a destination tape exists.
func (p *Planner) enqueue(b layout.BlockID, now float64, want int) *Job {
	if p.byBlock[b] != nil {
		return nil
	}
	live := p.LiveCopies(b)
	if live == 0 || live >= want {
		return nil
	}
	if !p.hasDest(b) {
		return nil
	}
	return p.add(&Job{Block: b, At: now, Want: want})
}

// add gives j the next ID and enters it in the job table.
func (p *Planner) add(j *Job) *Job {
	j.ID = p.nextID
	p.nextID++
	p.created++
	p.jobs = append(p.jobs, j)
	p.blocks = append(p.blocks, j.Block)
	p.byBlock[j.Block] = j
	return j
}

// Covered reports whether a job already covers block b, so no other job
// for it can be enqueued.
func (p *Planner) Covered(b layout.BlockID) bool { return p.byBlock[b] != nil }

// EnqueueEvacuation creates a job that moves block b's copy at `from` off
// its tape: mint one extra copy elsewhere (Want = live+1), then the caller
// removes `from` once the mint commits. Returns nil when the block is
// already covered by a job, the copy at `from` is not readable (nothing to
// vacate -- plain repair owns dead copies), no live copy exists, or no
// destination tape can take the extra copy.
func (p *Planner) EnqueueEvacuation(b layout.BlockID, from layout.Replica, now float64) *Job {
	if p.byBlock[b] != nil || !p.copyOK(from) {
		return nil
	}
	live := p.LiveCopies(b)
	if live == 0 || !p.hasDest(b) {
		return nil
	}
	return p.add(&Job{Kind: KindEvacuate, Block: b, At: now, Want: live + 1, From: from})
}

// EvacMoot reports that an evacuation job's purpose has evaporated: the
// copy it was to vacate is no longer readable (its tape died, or the copy
// escalated to dead), so plain repair -- not evacuation -- now owns the
// block. Moot jobs should be cancelled.
func (p *Planner) EvacMoot(j *Job) bool {
	return j.Kind == KindEvacuate && !p.copyOK(j.From)
}

// NoteTapeFail reacts to a tape death: every block that had a copy on the
// tape is a repair candidate.
func (p *Planner) NoteTapeFail(tape int, now float64) {
	for _, s := range p.lay.TapeContents(tape) {
		p.enqueue(s.Block, now, p.Base(s.Block))
	}
}

// NoteCopyDead reacts to a single copy death (a bad block escalation).
func (p *Planner) NoteCopyDead(tape, pos int, now float64) {
	if b, ok := p.lay.BlockAt(tape, pos); ok {
		p.enqueue(b, now, p.Base(b))
	}
}

// Rank snapshots the active jobs for Next to hand out hottest-first (ties
// break toward the older job), so idle drive time goes to the blocks most
// likely to be requested. One tight pass over the table's blocks decays
// each job's heat to now exactly once, in ID order, into a dense heat
// slice and notes the hottest job; nothing is ordered yet, so a caller
// that stops at the first job it can issue pays for no heap. The decays
// are never skipped or reordered, even when the caller stops early: At
// rescales the stored count, so a different decay sequence would change
// later heat bits. A lone job is not compared with anything, so its heat
// is left undecayed. Jobs enqueued or cancelled after Rank do not change
// the snapshot.
func (p *Planner) Rank(now float64) {
	n := len(p.jobs)
	p.snap, p.snapView = p.jobs[:n:n], true
	p.heats = slices.Grow(p.heats[:0], n)[:n]
	p.top = -1
	switch {
	case n > 1:
		p.top = p.heat.decayEach(p.blocks, p.rankedAt, now, p.heats)
		p.rankedAt = now
	case n == 1:
		p.heats[0], p.top = 0, 0
	}
	p.first, p.rank, p.heaped = p.top, p.rank[:0], false
}

// Next pops the hottest remaining job of the last Rank snapshot, or nil
// once the snapshot is exhausted. The first call returns the job Rank
// noted; the second heaps the other jobs' snapshot indices by heat, in
// O(n), and every later call pops that heap.
func (p *Planner) Next() *Job {
	if i := p.top; i >= 0 {
		p.top = -1
		return p.snap[i]
	}
	if !p.heaped {
		h := p.rank[:0]
		for i := range p.heats {
			if i != p.first {
				h = append(h, int32(i))
			}
		}
		for k := len(h)/2 - 1; k >= 0; k-- {
			p.siftDown(h, k)
		}
		p.rank, p.heaped = h, true
	}
	h := p.rank
	if len(h) == 0 {
		return nil
	}
	j := p.snap[h[0]]
	last := len(h) - 1
	h[0] = h[last]
	p.rank = h[:last]
	p.siftDown(p.rank, 0)
	return j
}

// before orders snapshot indices hotter first, ties toward the older job:
// the snapshot is in ID order, so the lower index is the older job.
// Indices are unique, so this is a strict total order.
func (p *Planner) before(a, b int32) bool {
	if ha, hb := p.heats[a], p.heats[b]; ha != hb {
		return ha > hb
	}
	return a < b
}

// siftDown restores the heap order below h[i].
func (p *Planner) siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && p.before(h[r], h[c]) {
			c = r
		}
		if !p.before(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// PickSource selects the surviving copy j's read step should use. ok, when
// non-nil, further filters candidates (the engine rejects tapes another
// drive holds). SrcDone and SrcGone mean the job should be cancelled.
func (p *Planner) PickSource(j *Job, ok func(layout.Replica) bool) (layout.Replica, SrcStatus) {
	if p.EvacMoot(j) {
		return layout.Replica{}, SrcDone
	}
	if p.LiveCopies(j.Block) >= j.Want {
		return layout.Replica{}, SrcDone
	}
	anyLive := false
	for _, c := range p.lay.Replicas(j.Block) {
		if !p.copyOK(c) {
			continue
		}
		anyLive = true
		if ok == nil || ok(c) {
			j.Src = c
			return c, SrcOK
		}
	}
	if anyLive {
		return layout.Replica{}, SrcBusy
	}
	return layout.Replica{}, SrcGone
}

// FinishRead advances j past its completed read step.
func (p *Planner) FinishRead(j *Job) { j.Step = StepWrite }

// ChooseDest reserves a destination for j's write step: the acceptable
// tape with the most spare capacity (ties toward the lowest index) that
// holds no copy of the block, at its lowest usable free position. tapeOK,
// when non-nil, filters tapes (the engine requires up and claimable).
// Returns false when no destination exists right now.
func (p *Planner) ChooseDest(j *Job, tapeOK func(int) bool) (layout.Replica, bool) {
	if j.Reserved {
		return j.Dst, true
	}
	cands := p.cands[:0]
	for t := 0; t < p.lay.Tapes(); t++ {
		if !p.tapeUp(t) || (tapeOK != nil && !tapeOK(t)) ||
			(p.destOK != nil && !p.destOK(t)) {
			continue
		}
		if _, dup := p.lay.ReplicaOn(j.Block, t); dup {
			continue
		}
		spare := p.lay.FreeBlocks(t) - int(p.resByTape[t])
		if spare > 0 {
			cands = append(cands, destCand{t, spare})
		}
	}
	p.cands = cands
	slices.SortFunc(cands, func(a, b destCand) int {
		return cmp.Or(cmp.Compare(b.spare, a.spare), cmp.Compare(a.tape, b.tape))
	})
	for _, c := range cands {
		pos := p.lay.FirstFree(c.tape, func(pos int) bool {
			return !p.reserved.Has(c.tape, pos) && p.posOK(c.tape, pos)
		})
		if pos < 0 {
			continue
		}
		j.Dst = layout.Replica{Tape: c.tape, Pos: pos}
		j.Reserved = true
		p.reserved.Add(c.tape, pos)
		p.nReserved++
		p.resByTape[c.tape]++
		return j.Dst, true
	}
	return layout.Replica{}, false
}

// release drops j's destination reservation, if any.
func (p *Planner) release(j *Job) {
	if !j.Reserved {
		return
	}
	p.reserved.Remove(j.Dst.Tape, j.Dst.Pos)
	p.nReserved--
	p.resByTape[j.Dst.Tape]--
	j.Reserved = false
}

// Abort rolls back an issued write whose destination died before the
// commit settled: the reservation is released and the job stays at
// StepWrite with its completed read intact (monotone -- no regression).
func (p *Planner) Abort(j *Job) { p.release(j) }

// Commit finalizes j's write step: the minted copy enters the layout at
// the reserved destination, the reservation is released, and the job is
// retired. If a repair job's block is still under target (several copies
// were lost) a fresh job is enqueued; an evacuation job instead leaves the
// follow-up -- removing the copy at From -- to its caller. Returns the new
// copy.
func (p *Planner) Commit(j *Job, now float64) (layout.Replica, error) {
	if err := p.lay.AddCopy(j.Block, j.Dst.Tape, j.Dst.Pos); err != nil {
		return layout.Replica{}, err
	}
	c := j.Dst
	p.release(j)
	p.drop(j)
	if j.Kind == KindRepair {
		p.enqueue(j.Block, now, j.Want)
	}
	return c, nil
}

// Cancel retires j without minting anything, releasing any reservation.
func (p *Planner) Cancel(j *Job) {
	p.release(j)
	p.drop(j)
}

// drop takes j out of the job table, first copying the Rank snapshot
// while it still views the table, since the shift would move it.
func (p *Planner) drop(j *Job) {
	for i, q := range p.jobs {
		if q == j {
			if p.snapView {
				p.snapBuf = append(p.snapBuf[:0], p.snap...)
				p.snap, p.snapView = p.snapBuf, false
			}
			p.jobs = append(p.jobs[:i], p.jobs[i+1:]...)
			p.blocks = append(p.blocks[:i], p.blocks[i+1:]...)
			break
		}
	}
	if p.byBlock[j.Block] == j {
		p.byBlock[j.Block] = nil
	}
}

// Scan advances the rotating block scan by ScanRate blocks: it enqueues
// repair for under-replicated blocks the event path missed (injected bad
// blocks), promotes hot blocks toward MaxCopies, and nominates cold
// excess copies to the reclaim callback, which performs the removal (the
// engine vetoes copies that are in use) and reports whether it did.
func (p *Planner) Scan(now float64, reclaim func(layout.BlockID, layout.Replica) bool) {
	n := p.lay.NumBlocks()
	if n == 0 {
		return
	}
	steps := p.cfg.ScanRate
	if steps > n {
		steps = n
	}
	for i := 0; i < steps; i++ {
		b := layout.BlockID(p.cursor)
		p.cursor = (p.cursor + 1) % n
		if p.byBlock[b] != nil {
			continue
		}
		live := p.LiveCopies(b)
		base := p.Base(b)
		switch {
		case live >= 1 && live < base:
			p.enqueue(b, now, base)
		case p.cfg.PromoteHeat > 0 && live >= base && live < p.cfg.MaxCopies &&
			p.heat.At(int(b), now) >= p.cfg.PromoteHeat:
			p.enqueue(b, now, live+1)
		case p.cfg.ReclaimHeat > 0 && live > base &&
			p.heat.At(int(b), now) <= p.cfg.ReclaimHeat:
			if c, ok := p.reclaimVictim(b); ok {
				reclaim(b, c)
			}
		}
	}
}

// reclaimVictim picks the copy to give back: the newest live copy that is
// not the original.
func (p *Planner) reclaimVictim(b layout.BlockID) (layout.Replica, bool) {
	cs := p.lay.Replicas(b)
	for i := len(cs) - 1; i >= 1; i-- {
		if p.copyOK(cs[i]) {
			return cs[i], true
		}
	}
	return layout.Replica{}, false
}
