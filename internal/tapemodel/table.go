package tapemodel

import "math"

// CostTable is a dense, devirtualized evaluation of a Profile on a block
// grid: every locate-forward, locate-reverse, and rewind cost for motions of
// 0..Max blocks is precomputed, along with the per-block read times and the
// mechanical switch constants. Simulation hot paths (the kernel's read
// issue, the scheduler cost model, the envelope's prefix-bandwidth scans)
// evaluate millions of these costs per run; the table turns each one from
// two interface calls plus piecewise-linear arithmetic into a slice load.
//
// The table is exact, not approximate: every entry is produced by the very
// Profile method it replaces, and a table is only built when the block grid
// itself is exact in float64 (every product d*blockMB rounds to the true
// real value, verified with an FMA residual check). Under that condition
// the float64 subtraction PosMB(to)-PosMB(from) performed by Profile.Locate
// yields exactly (to-from)*blockMB, so indexing by integer block distance
// reproduces the interface path bit for bit. Off-grid positions, non-grid
// block sizes, and non-Profile positioners (the serpentine model, whose
// cost is not a function of logical distance) simply get no table and keep
// the interface path.
type CostTable struct {
	Max int // highest block index (and distance) covered

	locFwd []float64 // locFwd[d]: Profile.LocateForward(d*blockMB)
	locRev []float64 // locRev[d]: Profile.LocateReverse(d*blockMB)
	rewind []float64 // rewind[h]: Profile.Rewind(h*blockMB)

	readFwd float64 // Profile.Read(blockMB, Forward)
	readRev float64 // Profile.Read(blockMB, Reverse)
	bot     float64 // Profile.BOTOverhead
	switchT float64 // Profile.SwitchTime()
	load    float64 // Profile.InitialLoad()
}

// gridExact reports whether every block boundary 0..max lands exactly on
// the float64 grid: d*blockMB must round to the true real product for every
// d. math.FMA(d, blockMB, -d*blockMB) computes the rounding residual with a
// single rounding, so it is zero exactly when the product is exact. When
// all products are exact, so is every difference of two boundaries, which
// is what makes distance-indexed lookups bit-equal to Profile.Locate.
func gridExact(blockMB float64, max int) bool {
	for d := 0; d <= max; d++ {
		p := float64(d) * blockMB
		if math.FMA(float64(d), blockMB, -p) != 0 {
			return false
		}
	}
	return true
}

// NewCostTable builds the dense cost table for positioner p on a grid of
// maxBlocks block boundaries of blockMB megabytes each. It returns nil --
// callers then stay on the interface path -- when p is not a piecewise
// -linear Profile (the serpentine model's locate cost depends on physical
// track geometry, not logical distance) or when the grid is not exactly
// representable in float64.
func NewCostTable(p Positioner, blockMB float64, maxBlocks int) *CostTable {
	prof, ok := p.(*Profile)
	if !ok || blockMB <= 0 || maxBlocks < 0 || !gridExact(blockMB, maxBlocks) {
		return nil
	}
	t := &CostTable{
		Max:     maxBlocks,
		locFwd:  make([]float64, maxBlocks+1),
		locRev:  make([]float64, maxBlocks+1),
		rewind:  make([]float64, maxBlocks+1),
		readFwd: prof.Read(blockMB, Forward),
		readRev: prof.Read(blockMB, Reverse),
		bot:     prof.BOTOverhead,
		switchT: prof.SwitchTime(),
		load:    prof.InitialLoad(),
	}
	for d := 0; d <= maxBlocks; d++ {
		k := float64(d) * blockMB
		t.locFwd[d] = prof.LocateForward(k)
		t.locRev[d] = prof.LocateReverse(k)
		t.rewind[d] = prof.Rewind(k)
	}
	return t
}

// Covers reports whether the block position lies on the table's grid.
func (t *CostTable) Covers(pos int) bool { return pos >= 0 && pos <= t.Max }

// Locate returns Profile.Locate for the motion between two on-grid block
// boundaries, bit-equal to the interface path (including the
// beginning-of-tape overhead on reverse motion to position 0).
func (t *CostTable) Locate(from, to int) (float64, Direction) {
	switch {
	case to > from:
		return t.locFwd[to-from], Forward
	case to < from:
		sec := t.locRev[from-to]
		if to == 0 {
			sec += t.bot
		}
		return sec, Reverse
	}
	return 0, Forward
}

// ReadBlock returns the one-block read time after a locate in direction
// dir, bit-equal to Profile.Read(blockMB, dir).
func (t *CostTable) ReadBlock(dir Direction) float64 {
	if dir == Reverse {
		return t.readRev
	}
	return t.readFwd
}

// FullSwitch returns Profile.FullSwitch from an on-grid block boundary.
func (t *CostTable) FullSwitch(from int) float64 { return t.rewind[from] + t.switchT }

// SwitchTime returns the mechanical eject + robot + load time.
func (t *CostTable) SwitchTime() float64 { return t.switchT }

// InitialLoad returns the empty-drive load cost.
func (t *CostTable) InitialLoad() float64 { return t.load }
