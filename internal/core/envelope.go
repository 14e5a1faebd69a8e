package core

import (
	mathbits "math/bits"
	"slices"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// builder carries the working state of the upper-envelope computation
// (steps 1-6 of the major rescheduler, Section 3.2).
//
// This is the optimized builder: each tape's extension list is built once
// per reschedule (position-sorted) and maintained incrementally as
// requests are scheduled, and the step-3 prefix-bandwidth evaluation is
// cached per tape and recomputed only for tapes whose envelope or
// candidate set changed since the previous iteration. A builder is
// reusable across reschedules via reset, so steady-state reschedules are
// allocation-free. Only the tapes in the builder's tape set have requests
// or candidates, so the per-tape loops walk that set, in ascending order
// like the naive construction's loops over every tape, and reset clears
// only its rows. envelope_ref_test.go retains the naive construction; the
// differential test asserts both produce bit-identical results.
type builder struct {
	st    *sched.State
	env   []int            // envelope boundary per tape (block boundary)
	count []int            // number of scheduled requests per tape
	where []layout.Replica // assigned copy per request index, Tape=-1 if unscheduled
	reqs  []*sched.Request // st.Pending snapshot
	onT   [][]int          // request indices scheduled on each tape (unordered)

	unsched int // maintained count of unscheduled requests (where[i].Tape < 0)

	// Incremental step-3 state. ext[t] holds tape t's candidate extension
	// list: unscheduled requests with a copy on t, sorted by (position,
	// request index). Entries whose request has since been scheduled are
	// tombstones, compacted away on the next refresh. bw[t] caches the
	// incremental bandwidth of every prefix of ext[t]; it is valid exactly
	// when dirty[t] is false (no tombstones and env[t] unchanged since the
	// last refresh).
	ext   [][]extEntry
	bw    [][]float64
	dirty []bool

	// tapes holds every tape with a row written this build: a request
	// assigned to it or an extension entry. The rows of the other tapes
	// are empty, and their dirty marks are never read.
	tapes sched.TapeSet

	prefix []int            // scratch: chosen prefix, request indices
	cands  []layout.Replica // scratch for insideChoice

	// noFaults caches "no failure mask is armed" for the whole build, so
	// the fault-free hot path skips the per-copy liveness checks.
	noFaults bool
}

// extEntry is one candidate in a tape's extension list.
type extEntry struct {
	req int // index into builder.reqs
	pos int // the copy's position on the list's tape
}

// reset prepares the builder for a fresh construction over st, reusing
// every previously allocated buffer. Only the previous build's tapes have
// rows to truncate. dirty needs no clearing: initExtensions marks every
// tape of the set dirty, and no tape outside it is read.
func (b *builder) reset(st *sched.State) {
	for i, w := range b.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			b.onT[t], b.ext[t], b.bw[t] = b.onT[t][:0], b.ext[t][:0], b.bw[t][:0]
		}
	}
	tapes := st.Layout.Tapes()
	b.tapes.Reset(tapes)
	n := len(st.Pending)
	b.st = st
	b.reqs = st.Pending
	b.noFaults = st.Down == nil && st.DeadCopy == nil
	b.env, b.count = grow(b.env, tapes), grow(b.count, tapes)
	clear(b.env)
	clear(b.count)
	b.unsched = n

	if cap(b.where) < n {
		b.where = make([]layout.Replica, n)
	} else {
		b.where = b.where[:n]
	}
	for i := range b.where {
		b.where[i] = layout.Replica{Tape: -1}
	}

	b.onT, b.ext, b.bw = grow(b.onT, tapes), grow(b.ext, tapes), grow(b.bw, tapes)
	b.dirty = grow(b.dirty, tapes)
	b.prefix = b.prefix[:0]
}

// build runs steps 1-6 over the state set by reset.
func (b *builder) build() {
	b.initialEnvelope() // step 1
	b.absorb()          // step 2
	b.extendAll()       // steps 3-6
}

// extendAll extends the envelopes of the schedule S1 left by steps 1-2
// until every request is scheduled (steps 3-6).
func (b *builder) extendAll() {
	b.initExtensions()
	for b.unsched > 0 {
		tape, prefix := b.bestExtension() // steps 3-4: choose prefix
		if tape < 0 {
			break // defensive: cannot happen while requests have replicas
		}
		b.extend(tape, prefix) // step 4: extend envelope
		b.shrink()             // step 5: shrink envelopes
	} // step 6: iterate
}

// initialEnvelope sets each tape's envelope to the head position after
// reading its highest requested block with a single surviving copy, and
// stretches the mounted tape's envelope to the current head position if
// needed. With the fault model off, "single surviving copy" is exactly
// "non-replicated"; with it on, a replicated block whose other copies were
// lost to failures is pinned just like an unreplicated one, and a request
// with no surviving copy at all is left unscheduled (the engine reports it
// unserviceable and never offers it to the scheduler again).
func (b *builder) initialEnvelope() {
	for i, r := range b.reqs {
		c, live := b.soleLiveCopy(r.Block)
		if !live {
			continue
		}
		b.assign(i, c)
		if c.Pos+1 > b.env[c.Tape] {
			b.env[c.Tape] = c.Pos + 1
		}
	}
	if b.st.Mounted >= 0 && b.st.Head > b.env[b.st.Mounted] {
		b.env[b.st.Mounted] = b.st.Head
	}
}

// soleLiveCopy returns block blk's only readable copy, or ok=false when the
// block has zero or several readable copies. With no failure mask armed it
// reduces to the replication test, inlined into the step-1 loop.
func (b *builder) soleLiveCopy(blk layout.BlockID) (layout.Replica, bool) {
	if b.noFaults {
		cs := b.st.Layout.Replicas(blk)
		if len(cs) != 1 {
			return layout.Replica{}, false
		}
		return cs[0], true
	}
	return b.soleLiveCopyMasked(blk)
}

func (b *builder) soleLiveCopyMasked(blk layout.BlockID) (layout.Replica, bool) {
	var sole layout.Replica
	n := 0
	for _, c := range b.st.Layout.Replicas(blk) {
		if !b.st.CopyOK(c) {
			continue
		}
		if n++; n > 1 {
			return layout.Replica{}, false
		}
		sole = c
	}
	return sole, n == 1
}

// copyOK is st.CopyOK behind the cached fault-free fast path.
func (b *builder) copyOK(c layout.Replica) bool {
	return b.noFaults || b.st.CopyOK(c)
}

// absorb schedules every request that some in-envelope copy can satisfy.
// When several copies qualify, the mounted tape wins; otherwise the tape
// with the most scheduled requests, ties broken by jukebox order after the
// mounted tape.
func (b *builder) absorb() {
	for i := range b.reqs {
		if b.where[i].Tape >= 0 {
			continue
		}
		if c, ok := b.insideChoice(i); ok {
			b.assign(i, c)
		}
	}
}

// insideChoice picks the copy of request i to absorb, among copies inside
// the current envelope.
func (b *builder) insideChoice(i int) (layout.Replica, bool) {
	cands := b.cands[:0]
	for _, c := range b.st.Layout.Replicas(b.reqs[i].Block) {
		if c.Pos+1 <= b.env[c.Tape] && b.copyOK(c) {
			cands = append(cands, c)
		}
	}
	b.cands = cands[:0]
	if len(cands) == 0 {
		return layout.Replica{}, false
	}
	for _, c := range cands {
		if c.Tape == b.st.Mounted {
			return c, true
		}
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if b.count[c.Tape] > b.count[best.Tape] ||
			(b.count[c.Tape] == b.count[best.Tape] &&
				b.st.JukeboxRank(c.Tape) < b.st.JukeboxRank(best.Tape)) {
			best = c
		}
	}
	return best, true
}

func (b *builder) assign(i int, c layout.Replica) {
	if b.where[i].Tape < 0 {
		b.unsched--
	}
	b.where[i] = c
	b.count[c.Tape]++
	if len(b.onT[c.Tape]) == 0 {
		b.tapes.Add(c.Tape)
	}
	b.onT[c.Tape] = append(b.onT[c.Tape], i)
}

// unassign removes request i from its tape by swap-delete. onT ordering is
// not relied upon anywhere: its only consumer, shrinkMove, scans for the
// maximum and second-maximum assigned positions by value, so the O(1)
// swap-delete replaces the previous O(n) in-place splice.
func (b *builder) unassign(i int) {
	c := b.where[i]
	b.where[i].Tape = -1
	b.unsched++
	b.count[c.Tape]--
	list := b.onT[c.Tape]
	for k, idx := range list {
		if idx == i {
			last := len(list) - 1
			list[k] = list[last]
			b.onT[c.Tape] = list[:last]
			break
		}
	}
}

// initExtensions builds every tape's extension list exactly once per
// reschedule: the unscheduled requests (after step 2) with a copy on the
// tape, sorted by position with ties (duplicate requests for one block) by
// request index. From here on the lists only lose members, so they are
// never re-sorted; scheduling a request tombstones its entries, compacted
// by the next per-tape refresh. The lists start empty (reset truncated
// them), and every tape of the set starts dirty.
func (b *builder) initExtensions() {
	for i := range b.reqs {
		if b.where[i].Tape >= 0 {
			continue
		}
		for _, c := range b.st.Layout.Replicas(b.reqs[i].Block) {
			if !b.copyOK(c) {
				continue
			}
			if len(b.ext[c.Tape]) == 0 {
				b.tapes.Add(c.Tape)
			}
			b.ext[c.Tape] = append(b.ext[c.Tape], extEntry{req: i, pos: c.Pos})
		}
	}
	for i, w := range b.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			b.dirty[t] = true
			if len(b.ext[t]) < 2 {
				continue
			}
			slices.SortFunc(b.ext[t], func(x, y extEntry) int {
				if x.pos != y.pos {
					return x.pos - y.pos
				}
				return x.req - y.req
			})
		}
	}
}

// refresh compacts tape t's extension list (dropping entries whose request
// has been scheduled; compaction preserves the sorted order) and
// recomputes the cached incremental bandwidth of every prefix with one
// cumulative cost scan: a serve per entry and a locate back to the
// envelope per prefix, on the dense table when it covers the scan (the
// list is sorted, so its last entry is the highest position).
func (b *builder) refresh(t int) {
	live := b.ext[t][:0]
	for _, e := range b.ext[t] {
		if b.where[e.req].Tape < 0 {
			live = append(live, e)
		}
	}
	b.ext[t] = live

	costs, env := b.st.Costs, b.env[t]
	top := env
	if len(live) > 0 {
		top = live[len(live)-1].pos + 1
	}
	tab := costs.Table(env, top)
	sw := 0.0 // the mechanical switch, for a tape not yet in the schedule
	if env == 0 && t != b.st.Mounted {
		sw = costs.SwitchTime()
	}
	bw := b.bw[t][:0]
	head, cum := env, 0.0
	for j, e := range live {
		var step, back float64
		if tab != nil {
			loc, dir := tab.Locate(head, e.pos)
			step = loc + tab.ReadBlock(dir)
			back, _ = tab.Locate(e.pos+1, env)
		} else {
			step, _ = costs.ServeOne(head, e.pos)
			back = locateBack(costs, e.pos+1, env)
		}
		cum += step
		head = e.pos + 1
		bw = append(bw, float64(j+1)*costs.BlockMB/(cum+back+sw))
	}
	b.bw[t] = bw
	b.dirty[t] = false
}

// bestExtension performs step 3: across every tape's extension list,
// return the tape and prefix with the highest incremental bandwidth. Ties
// prefer the tape with the most scheduled requests inside the envelope,
// then jukebox order. Only tapes whose envelope or candidate set changed
// since the previous iteration are re-evaluated; the rest reuse their
// cached prefix bandwidths, so the comparison sequence (and hence every
// tie-break) is identical to the reference implementation's full rescan.
// A refresh touches only its own tape's rows, so each tape is refreshed
// just before it is scanned.
func (b *builder) bestExtension() (int, []int) {
	bestTape, bestJ := -1, -1
	bestBW := -1.0
	for i, w := range b.tapes.Words() {
		for ; w != 0; w &= w - 1 {
			t := i<<6 | mathbits.TrailingZeros64(w)
			if b.dirty[t] {
				b.refresh(t)
			}
			for j, bw := range b.bw[t] {
				if bw > bestBW+1e-12 ||
					(bw > bestBW-1e-12 && bestTape >= 0 && b.betterTie(t, bestTape)) {
					bestTape, bestJ, bestBW = t, j, bw
				}
			}
		}
	}
	if bestTape < 0 {
		return -1, nil
	}
	b.prefix = b.prefix[:0]
	for _, e := range b.ext[bestTape][:bestJ+1] {
		b.prefix = append(b.prefix, e.req)
	}
	return bestTape, b.prefix
}

// betterTie reports whether tape a beats tape c on the step-4 tie-break.
func (b *builder) betterTie(a, c int) bool {
	if b.count[a] != b.count[c] {
		return b.count[a] > b.count[c]
	}
	return b.st.JukeboxRank(a) < b.st.JukeboxRank(c)
}

// extend performs step 4: schedule the chosen prefix on the tape and push
// the envelope out to cover it. Every tape holding a copy of a newly
// scheduled request is marked dirty (the request leaves its candidate
// list), as is the extended tape itself (its envelope moved).
func (b *builder) extend(tape int, prefix []int) {
	for _, i := range prefix {
		c := mustReplicaOn(b.st.Layout, b.reqs[i].Block, tape)
		for _, cc := range b.st.Layout.Replicas(b.reqs[i].Block) {
			b.dirty[cc.Tape] = true
		}
		b.assign(i, c)
		if c.Pos+1 > b.env[tape] {
			b.env[tape] = c.Pos + 1
		}
	}
	b.dirty[tape] = true
}

// shrink performs step 5: while some replicated request scheduled at the
// outer edge of tape a's envelope is also satisfiable inside another tape's
// envelope, move it there and pull tape a's envelope back to its next
// scheduled request. Among multiple shrinkable tapes, the one with the
// fewest scheduled requests goes first, ties to the lowest jukebox rank.
//
// A move is only taken when it strictly shrinks the source envelope (the
// paper shrinks "back to the preceding request"); this rules out zero-gain
// moves when duplicate requests pin the same edge position and guarantees
// termination, since every iteration strictly decreases the total envelope.
func (b *builder) shrink() {
	for {
		cand := -1
		for i, w := range b.tapes.Words() {
			for ; w != 0; w &= w - 1 {
				a := i<<6 | mathbits.TrailingZeros64(w)
				if _, _, ok := b.shrinkMove(a); !ok {
					continue
				}
				if cand < 0 ||
					b.count[a] < b.count[cand] ||
					(b.count[a] == b.count[cand] && b.st.JukeboxRank(a) < b.st.JukeboxRank(cand)) {
					cand = a
				}
			}
		}
		if cand < 0 {
			return
		}
		b.shrinkOne(cand)
	}
}

// shrinkMove determines whether tape a's envelope can shrink: its edge must
// be defined by a scheduled request, moving that request must strictly
// lower the envelope, and the request must be satisfiable inside another
// tape's envelope. It returns the edge request index and the post-move
// envelope boundary.
func (b *builder) shrinkMove(a int) (edge, newEnv int, ok bool) {
	edge, maxPos, second := -1, -1, -1
	for _, i := range b.onT[a] {
		p := b.where[i].Pos
		if p > maxPos {
			edge, second = i, maxPos
			maxPos = p
		} else if p > second {
			second = p
		}
	}
	if edge < 0 || maxPos+1 != b.env[a] {
		return -1, 0, false // envelope pinned by the head or empty
	}
	newEnv = second + 1
	if a == b.st.Mounted && b.st.Head > newEnv {
		newEnv = b.st.Head
	}
	if newEnv >= b.env[a] {
		return -1, 0, false // no strict shrink (duplicate edge position)
	}
	if _, reloc := b.relocation(a, edge); !reloc {
		return -1, 0, false
	}
	return edge, newEnv, true
}

// relocation finds the copy that the edge request of tape a should move to:
// a copy on another tape strictly inside that tape's envelope. Among
// several, the tape with the most scheduled requests wins, ties by jukebox
// order (mirroring the absorb rule).
func (b *builder) relocation(a, edge int) (layout.Replica, bool) {
	var best layout.Replica
	found := false
	for _, c := range b.st.Layout.Replicas(b.reqs[edge].Block) {
		if c.Tape == a || c.Pos+1 > b.env[c.Tape] || !b.copyOK(c) {
			continue
		}
		if !found ||
			b.count[c.Tape] > b.count[best.Tape] ||
			(b.count[c.Tape] == b.count[best.Tape] &&
				b.st.JukeboxRank(c.Tape) < b.st.JukeboxRank(best.Tape)) {
			best, found = c, true
		}
	}
	return best, found
}

// shrinkOne moves tape a's edge request elsewhere and pulls the envelope
// back to the next scheduled request (or the mounted head / zero). The
// moved request stays scheduled throughout (unassign immediately followed
// by assign), so no extension list changes; only tape a's envelope moved,
// so only tape a's prefix-bandwidth cache is invalidated.
func (b *builder) shrinkOne(a int) {
	edge, newEnv, ok := b.shrinkMove(a)
	if !ok {
		return
	}
	c, _ := b.relocation(a, edge)
	b.unassign(edge)
	b.assign(edge, c)
	b.env[a] = newEnv
	b.dirty[a] = true
}

// mustReplicaOn is ReplicaOn for copies known to exist.
func mustReplicaOn(l *layout.Layout, blk layout.BlockID, tape int) layout.Replica {
	c, ok := l.ReplicaOn(blk, tape)
	if !ok {
		panic("core: missing replica")
	}
	return c
}

// locateBack returns the cost of locating from block boundary `from` back
// to boundary `to` (the "locate back to the position of the current
// envelope" term of the step-3 incremental cost).
func locateBack(costs *sched.CostModel, from, to int) float64 {
	sec, _ := costs.Locate(from, to)
	return sec
}

// extensionCost is the step-3 incremental cost of extending tape t's
// envelope (currently at `env`) through the block at pos: locate and read
// it, locate back to the envelope, plus the mechanical switch cost for a
// tape not yet in the schedule. It reads the dense table when that covers
// both motions.
func extensionCost(st *sched.State, env, tape, pos int) float64 {
	var total float64
	if tab := st.Costs.Table(env, pos+1); tab != nil {
		loc, dir := tab.Locate(env, pos)
		back, _ := tab.Locate(pos+1, env)
		total = loc + tab.ReadBlock(dir) + back
	} else {
		step, head := st.Costs.ServeOne(env, pos)
		total = step + locateBack(st.Costs, head, env)
	}
	if env == 0 && tape != st.Mounted {
		total += st.Costs.SwitchTime()
	}
	return total
}

// grow returns s resized to n, keeping the elements already allocated
// (and so, for rows, their storage).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}
