package sched

import (
	"tapejuke/internal/tapemodel"
)

// CostModel evaluates the execution time of candidate schedules on one tape
// using the drive timing model. Head positions and block positions are in
// block units; a head at position h sits at byte offset h*BlockMB megabytes.
//
// The model normally crosses the tapemodel.Positioner interface for every
// evaluation. EnableTable precomputes a dense per-distance cost table for
// piecewise-linear profiles, after which on-grid evaluations are slice
// loads with bit-identical results; off-grid positions and non-tabulable
// positioners (the serpentine model) keep the interface path.
type CostModel struct {
	Prof    tapemodel.Positioner
	BlockMB float64

	tab *tapemodel.CostTable // nil until EnableTable, or when not tabulable
}

// EnableTable precomputes the dense cost table covering block positions
// 0..maxBlocks and reports whether the profile was tabulable (exact block
// grid, piecewise-linear profile). On false the model keeps the interface
// path everywhere; either way results are bit-identical.
func (c *CostModel) EnableTable(maxBlocks int) bool {
	c.tab = tapemodel.NewCostTable(c.Prof, c.BlockMB, maxBlocks)
	return c.tab != nil
}

// Table returns the dense cost table when it covers the block boundaries
// head and top, and nil otherwise. A cost walk from head that reads no
// position above top-1 visits only boundaries from 0 up to the larger of
// the two (positions are never negative), so one check serves the whole
// walk, which then reads CostTable.Locate and ReadBlock inline. Locate,
// ServeOneParts, SwitchCost and ExecTime each carry the interface path
// beside the table lookup and are too large to inline: a walk that called
// them would pay a call and two Covers checks per block.
func (c *CostModel) Table(head, top int) *tapemodel.CostTable {
	if t := c.tab; t != nil && t.Covers(head) && t.Covers(top) {
		return t
	}
	return nil
}

// PosMB converts a block-unit position to a megabyte offset.
func (c *CostModel) PosMB(pos int) float64 { return float64(pos) * c.BlockMB }

// Locate returns the time and direction of repositioning the head between
// two block boundaries (Profile.Locate on the megabyte offsets).
func (c *CostModel) Locate(from, to int) (float64, tapemodel.Direction) {
	if t := c.tab; t != nil && t.Covers(from) && t.Covers(to) {
		return t.Locate(from, to)
	}
	return c.Prof.Locate(c.PosMB(from), c.PosMB(to))
}

// ServeOne returns the time to serve a single block at position pos with the
// head currently at block-boundary head, and the resulting head position
// (pos+1). It charges the locate (with direction-dependent cost and the
// beginning-of-tape overhead when the target is position 0) plus the
// direction-dependent read of one block.
func (c *CostModel) ServeOne(head, pos int) (seconds float64, newHead int) {
	loc, rd, h := c.ServeOneParts(head, pos)
	return loc + rd, h
}

// ServeOneParts is ServeOne with the locate and read components reported
// separately, for time-decomposition accounting.
func (c *CostModel) ServeOneParts(head, pos int) (locate, read float64, newHead int) {
	if t := c.tab; t != nil && t.Covers(head) && t.Covers(pos) {
		loc, dir := t.Locate(head, pos)
		return loc, t.ReadBlock(dir), pos + 1
	}
	loc, dir := c.Prof.Locate(c.PosMB(head), c.PosMB(pos))
	rd := c.Prof.Read(c.BlockMB, dir)
	return loc, rd, pos + 1
}

// ExecTime returns the total time to execute the ordered service list
// `positions` starting with the head at block-boundary head, and the final
// head position. The list is executed in order, whatever that order is: the
// sweep-building schedulers pass forward-then-reverse orders, FIFO passes
// arrival order.
func (c *CostModel) ExecTime(head int, positions []int) (seconds float64, finalHead int) {
	total := 0.0
	for _, pos := range positions {
		t, h := c.ServeOne(head, pos)
		total += t
		head = h
	}
	return total, head
}

// execWalk is ExecTime's seconds over positions whose highest is top: on
// the dense table when it covers the walk (see Table), through ServeOne
// otherwise. Either way each step adds the same terms in the same order,
// so the result is bit-identical.
func (c *CostModel) execWalk(head int, positions []int, top int) float64 {
	tab := c.Table(head, top+1)
	exec := 0.0
	for _, p := range positions {
		var step float64
		if tab != nil {
			loc, dir := tab.Locate(head, p)
			step = loc + tab.ReadBlock(dir)
		} else {
			step, _ = c.ServeOne(head, p)
		}
		exec += step
		head = p + 1
	}
	return exec
}

// SwitchCost returns the cost of making `tape` the mounted tape when
// `mounted` (with its head at block-boundary head) is currently loaded.
// Selecting the mounted tape is free. Loading into an empty drive costs the
// robotic motion and load only; replacing a tape adds the rewind of the old
// tape and its ejection.
func (c *CostModel) SwitchCost(mounted, head, tape int) float64 {
	if tape == mounted {
		return 0
	}
	if t := c.tab; t != nil {
		if mounted < 0 {
			return t.InitialLoad()
		}
		if t.Covers(head) {
			return t.FullSwitch(head)
		}
	}
	if mounted < 0 {
		return c.Prof.InitialLoad()
	}
	return c.Prof.FullSwitch(c.PosMB(head))
}

// SwitchTime returns the mechanical tape-switch time (eject + robot +
// load), excluding the head-position-dependent rewind.
func (c *CostModel) SwitchTime() float64 {
	if t := c.tab; t != nil {
		return t.SwitchTime()
	}
	return c.Prof.SwitchTime()
}

// EffectiveBandwidth returns the effective bandwidth (megabytes per second)
// of retrieving the given service list from `tape`: bytes retrieved divided
// by tape-switch overhead plus schedule execution time (Section 3.1). The
// service list must already be in execution order; startHead is the head
// position the schedule executes from (the current head for the mounted
// tape, 0 after a switch).
func (c *CostModel) EffectiveBandwidth(mounted, head, tape, startHead int, positions []int) float64 {
	if len(positions) == 0 {
		return 0
	}
	sw := c.SwitchCost(mounted, head, tape)
	exec, _ := c.ExecTime(startHead, positions)
	total := sw + exec
	if total <= 0 {
		return 0
	}
	return float64(len(positions)) * c.BlockMB / total
}
