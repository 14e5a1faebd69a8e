package core

import (
	"sort"

	"tapejuke/internal/layout"
	"tapejuke/internal/sched"
)

// This file retains the straightforward O(iterations × tapes × pending·log n)
// envelope-extension construction as a reference implementation. The
// optimized builder in envelope.go must produce bit-identical envelopes,
// assignments, and tie-breaks; envelope_diff_test.go enforces that over
// randomized workloads and layouts. Keep this file naive and obviously
// correct — it is the specification the fast path is checked against.
//
// The only intentional departure from the original code is that
// refExtensionList orders equal positions by request index (duplicate
// requests for the same block share a position); the original sort.Slice
// left that order unspecified, which would make a bit-identical comparison
// ill-defined. The optimized builder uses the same canonical order.

// refBuilder mirrors builder but recomputes everything from scratch on
// every loop iteration.
type refBuilder struct {
	st      *sched.State
	env     []int
	count   []int
	where   []layout.Replica
	reqs    []*sched.Request
	onT     [][]int
	s1Where []layout.Replica
}

// refBuildEnvelope runs steps 1-6 naively.
func refBuildEnvelope(st *sched.State) *refBuilder {
	b := &refBuilder{
		st:    st,
		env:   make([]int, st.Layout.Tapes()),
		count: make([]int, st.Layout.Tapes()),
		reqs:  st.Pending,
		onT:   make([][]int, st.Layout.Tapes()),
	}
	b.where = make([]layout.Replica, len(b.reqs))
	for i := range b.where {
		b.where[i].Tape = -1
	}

	b.initialEnvelope() // step 1
	b.absorb()          // step 2
	b.s1Where = append([]layout.Replica(nil), b.where...)
	for b.unscheduledCount() > 0 {
		tape, prefix := b.bestExtension() // steps 3-4: choose prefix
		if tape < 0 {
			break
		}
		b.extend(tape, prefix) // step 4: extend envelope
		b.shrink()             // step 5: shrink envelopes
	} // step 6: iterate
	return b
}

func (b *refBuilder) initialEnvelope() {
	for i, r := range b.reqs {
		if len(b.st.Layout.Replicas(r.Block)) > 1 {
			continue
		}
		c := b.st.Layout.Replicas(r.Block)[0]
		b.assign(i, c)
		if c.Pos+1 > b.env[c.Tape] {
			b.env[c.Tape] = c.Pos + 1
		}
	}
	if b.st.Mounted >= 0 && b.st.Head > b.env[b.st.Mounted] {
		b.env[b.st.Mounted] = b.st.Head
	}
}

func (b *refBuilder) absorb() {
	for i := range b.reqs {
		if b.where[i].Tape >= 0 {
			continue
		}
		if c, ok := b.insideChoice(i); ok {
			b.assign(i, c)
		}
	}
}

func (b *refBuilder) insideChoice(i int) (layout.Replica, bool) {
	var cands []layout.Replica
	for _, c := range b.st.Layout.Replicas(b.reqs[i].Block) {
		if c.Pos+1 <= b.env[c.Tape] {
			cands = append(cands, c)
		}
	}
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

func (b *refBuilder) jukeboxRank(tape int) int {
	t0 := b.st.Mounted
	if t0 < 0 {
		t0 = 0
	}
	n := b.st.Layout.Tapes()
	return ((tape-t0)%n + n) % n
}

func (b *refBuilder) assign(i int, c layout.Replica) {
	b.where[i] = c
	b.count[c.Tape]++
	b.onT[c.Tape] = append(b.onT[c.Tape], i)
}

func (b *refBuilder) unassign(i int) {
	c := b.where[i]
	b.where[i].Tape = -1
	b.count[c.Tape]--
	list := b.onT[c.Tape]
	for k, idx := range list {
		if idx == i {
			b.onT[c.Tape] = append(list[:k], list[k+1:]...)
			break
		}
	}
}

func (b *refBuilder) unscheduledCount() int {
	n := 0
	for i := range b.where {
		if b.where[i].Tape < 0 {
			n++
		}
	}
	return n
}

func (b *refBuilder) bestExtension() (int, []int) {
	bestTape := -1
	var bestPrefix []int
	bestBW := -1.0
	for t := 0; t < b.st.Layout.Tapes(); t++ {
		ext := b.extensionList(t)
		if len(ext) == 0 {
			continue
		}
		head := b.env[t]
		cum := 0.0
		for j, idx := range ext {
			pos := mustReplicaOn(b.st.Layout, b.reqs[idx].Block, t).Pos
			step, h := b.st.Costs.ServeOne(head, pos)
			cum += step
			head = h
			total := cum + locateBack(b.st.Costs, head, b.env[t])
			if b.env[t] == 0 && t != b.st.Mounted {
				total += b.st.Costs.Prof.SwitchTime()
			}
			bw := float64(j+1) * b.st.Costs.BlockMB / total
			if bw > bestBW+1e-12 ||
				(bw > bestBW-1e-12 && bestTape >= 0 && b.betterTie(t, bestTape)) {
				bestTape, bestBW = t, bw
				bestPrefix = append(bestPrefix[:0], ext[:j+1]...)
			}
		}
	}
	return bestTape, bestPrefix
}

func (b *refBuilder) betterTie(a, c int) bool {
	if b.count[a] != b.count[c] {
		return b.count[a] > b.count[c]
	}
	return b.jukeboxRank(a) < b.jukeboxRank(c)
}

// refExtensionList rebuilds tape t's extension list from scratch: the
// indices of unscheduled requests with a copy on t, sorted by position with
// ties (duplicate requests for one block) by request index.
func (b *refBuilder) extensionList(t int) []int {
	var out []int
	for i := range b.reqs {
		if b.where[i].Tape >= 0 {
			continue
		}
		if _, ok := b.st.Layout.ReplicaOn(b.reqs[i].Block, t); ok {
			out = append(out, i)
		}
	}
	sort.Slice(out, func(x, y int) bool {
		px := mustReplicaOn(b.st.Layout, b.reqs[out[x]].Block, t).Pos
		py := mustReplicaOn(b.st.Layout, b.reqs[out[y]].Block, t).Pos
		if px != py {
			return px < py
		}
		return out[x] < out[y]
	})
	return out
}

func (b *refBuilder) extend(tape int, prefix []int) {
	for _, i := range prefix {
		c := mustReplicaOn(b.st.Layout, b.reqs[i].Block, tape)
		b.assign(i, c)
		if c.Pos+1 > b.env[tape] {
			b.env[tape] = c.Pos + 1
		}
	}
}

func (b *refBuilder) shrink() {
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

func (b *refBuilder) shrinkMove(a int) (edge, newEnv int, ok bool) {
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
		return -1, 0, false
	}
	newEnv = second + 1
	if a == b.st.Mounted && b.st.Head > newEnv {
		newEnv = b.st.Head
	}
	if newEnv >= b.env[a] {
		return -1, 0, false
	}
	if _, reloc := b.relocation(a, edge); !reloc {
		return -1, 0, false
	}
	return edge, newEnv, true
}

func (b *refBuilder) relocation(a, edge int) (layout.Replica, bool) {
	var best layout.Replica
	found := false
	for _, c := range b.st.Layout.Replicas(b.reqs[edge].Block) {
		if c.Tape == a || c.Pos+1 > b.env[c.Tape] {
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

func (b *refBuilder) shrinkOne(a int) {
	edge, newEnv, ok := b.shrinkMove(a)
	if !ok {
		return
	}
	c, _ := b.relocation(a, edge)
	b.unassign(edge)
	b.assign(edge, c)
	b.env[a] = newEnv
}
