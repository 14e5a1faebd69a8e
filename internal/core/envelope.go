package core

import (
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
// allocation-free. envelope_ref_test.go retains the naive construction;
// the differential test asserts both produce bit-identical results.
type builder struct {
	st    *sched.State
	env   []int            // envelope boundary per tape (block boundary)
	count []int            // number of scheduled requests per tape
	where []layout.Replica // assigned copy per request index, Tape=-1 if unscheduled
	reqs  []*sched.Request // st.Pending snapshot
	onT   [][]int          // request indices scheduled on each tape (unordered)

	// Snapshot of the schedule S1 at the end of step 2, kept so tests can
	// check the Theorem 2 bound on the extension cost C(S2) - C(S1).
	s1Where []layout.Replica

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
// every previously allocated buffer.
func (b *builder) reset(st *sched.State) {
	tapes := st.Layout.Tapes()
	n := len(st.Pending)
	b.st = st
	b.reqs = st.Pending
	b.noFaults = st.Down == nil && st.DeadCopy == nil
	b.env = resetInts(b.env, tapes)
	b.count = resetInts(b.count, tapes)
	b.unsched = n

	if cap(b.where) < n {
		b.where = make([]layout.Replica, n)
	} else {
		b.where = b.where[:n]
	}
	for i := range b.where {
		b.where[i] = layout.Replica{Tape: -1}
	}

	b.onT = resetRowsInt(b.onT, tapes)
	b.ext = resetRowsExt(b.ext, tapes)
	b.bw = resetRowsFloat(b.bw, tapes)
	if cap(b.dirty) < tapes {
		b.dirty = make([]bool, tapes)
	} else {
		b.dirty = b.dirty[:tapes]
	}
	for t := range b.dirty {
		b.dirty[t] = true
	}
	b.s1Where = b.s1Where[:0]
	b.prefix = b.prefix[:0]
}

// build runs steps 1-6 over the state set by reset.
func (b *builder) build() {
	b.initialEnvelope() // step 1
	b.absorb()          // step 2
	b.s1Where = append(b.s1Where[:0], b.where...)
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
				b.jukeboxRank(c.Tape) < b.jukeboxRank(best.Tape)) {
			best = c
		}
	}
	return best, true
}

// jukeboxRank orders tapes circularly starting at the mounted tape (or tape
// 0 for an empty drive): rank 0 is the mounted tape itself.
func (b *builder) jukeboxRank(tape int) int {
	t0 := b.st.Mounted
	if t0 < 0 {
		t0 = 0
	}
	n := b.st.Layout.Tapes()
	return ((tape-t0)%n + n) % n
}

func (b *builder) assign(i int, c layout.Replica) {
	if b.where[i].Tape < 0 {
		b.unsched--
	}
	b.where[i] = c
	b.count[c.Tape]++
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
// by the next per-tape refresh.
func (b *builder) initExtensions() {
	for t := range b.ext {
		b.ext[t] = b.ext[t][:0]
		b.dirty[t] = true
	}
	for i := range b.reqs {
		if b.where[i].Tape >= 0 {
			continue
		}
		for _, c := range b.st.Layout.Replicas(b.reqs[i].Block) {
			if !b.copyOK(c) {
				continue
			}
			b.ext[c.Tape] = append(b.ext[c.Tape], extEntry{req: i, pos: c.Pos})
		}
	}
	for t := range b.ext {
		slices.SortFunc(b.ext[t], func(x, y extEntry) int {
			if x.pos != y.pos {
				return x.pos - y.pos
			}
			return x.req - y.req
		})
	}
}

// refresh compacts tape t's extension list (dropping entries whose request
// has been scheduled; compaction preserves the sorted order) and
// recomputes the cached incremental bandwidth of every prefix with one
// cumulative cost scan.
func (b *builder) refresh(t int) {
	live := b.ext[t][:0]
	for _, e := range b.ext[t] {
		if b.where[e.req].Tape < 0 {
			live = append(live, e)
		}
	}
	b.ext[t] = live

	bw := b.bw[t][:0]
	head := b.env[t]
	cum := 0.0
	for j, e := range live {
		step, h := b.st.Costs.ServeOne(head, e.pos)
		cum += step
		head = h
		total := cum + locateBack(b.st.Costs, head, b.env[t])
		if b.env[t] == 0 && t != b.st.Mounted {
			total += b.st.Costs.SwitchTime()
		}
		bw = append(bw, float64(j+1)*b.st.Costs.BlockMB/total)
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
func (b *builder) bestExtension() (int, []int) {
	tapes := b.st.Layout.Tapes()
	for t := 0; t < tapes; t++ {
		if b.dirty[t] {
			b.refresh(t)
		}
	}
	bestTape, bestJ := -1, -1
	bestBW := -1.0
	for t := 0; t < tapes; t++ {
		for j, bw := range b.bw[t] {
			if bw > bestBW+1e-12 ||
				(bw > bestBW-1e-12 && bestTape >= 0 && b.betterTie(t, bestTape)) {
				bestTape, bestJ, bestBW = t, j, bw
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
	return b.jukeboxRank(a) < b.jukeboxRank(c)
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
		for a := 0; a < b.st.Layout.Tapes(); a++ {
			if _, _, ok := b.shrinkMove(a); !ok {
				continue
			}
			if cand < 0 ||
				b.count[a] < b.count[cand] ||
				(b.count[a] == b.count[cand] && b.jukeboxRank(a) < b.jukeboxRank(cand)) {
				cand = a
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
				b.jukeboxRank(c.Tape) < b.jukeboxRank(best.Tape)) {
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
// envelope (currently at `env`) through the given positions in order:
// locate+read through the positions, locate back to the envelope, plus the
// mechanical switch cost for a tape not yet in the schedule.
func extensionCost(st *sched.State, env, tape int, positions []int) float64 {
	head := env
	total := 0.0
	for _, pos := range positions {
		step, h := st.Costs.ServeOne(head, pos)
		total += step
		head = h
	}
	total += locateBack(st.Costs, head, env)
	if env == 0 && tape != st.Mounted {
		total += st.Costs.SwitchTime()
	}
	return total
}

// resetInts returns s resized to n and zeroed, reusing capacity.
func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetRowsInt resizes a slice of rows to n rows, truncating each reused
// row to length zero.
func resetRowsInt(rows [][]int, n int) [][]int {
	if cap(rows) < n {
		grown := make([][]int, n)
		copy(grown, rows)
		rows = grown
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

func resetRowsExt(rows [][]extEntry, n int) [][]extEntry {
	if cap(rows) < n {
		grown := make([][]extEntry, n)
		copy(grown, rows)
		rows = grown
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}

func resetRowsFloat(rows [][]float64, n int) [][]float64 {
	if cap(rows) < n {
		grown := make([][]float64, n)
		copy(grown, rows)
		rows = grown
	} else {
		rows = rows[:n]
	}
	for i := range rows {
		rows[i] = rows[i][:0]
	}
	return rows
}
