// Package layout maps logical data blocks onto tape positions in a jukebox,
// implementing the placement and replication schemes studied in Section 4 of
// the paper: horizontal vs. vertical hot-data layouts, the normalized
// start-position parameter SP, and NR-way replication of hot blocks with at
// most one copy of a block per tape.
//
// Logical blocks are numbered 0..NumBlocks-1 with the hot blocks first
// (0..NumHot-1), which lets the workload generator draw hot and cold
// requests from simple integer ranges.
package layout

import (
	"errors"
	"fmt"
	"math/bits"
)

// BlockID identifies a logical data block.
type BlockID int

// Replica is one physical copy of a logical block: a tape index and a block
// position on that tape (positions are numbered from 0 at the beginning of
// the tape).
type Replica struct {
	Tape int
	Pos  int
}

// Kind selects the hot-data layout across tapes.
type Kind int

const (
	// Horizontal distributes hot blocks (and their replicas) across all
	// tapes in the jukebox.
	Horizontal Kind = iota
	// Vertical collects all hot originals onto a single tape (tape 0);
	// replicas, if any, are distributed round-robin across the remaining
	// tapes.
	Vertical
)

// String names the layout kind.
func (k Kind) String() string {
	if k == Vertical {
		return "vertical"
	}
	return "horizontal"
}

// Config describes a data layout to build.
type Config struct {
	Tapes         int     // number of tapes in the jukebox
	TapeCapBlocks int     // capacity of each tape, in blocks
	HotPercent    float64 // PH: percent of logical blocks that are hot
	Replicas      int     // NR: extra copies of each hot block (0..Tapes-1)
	Kind          Kind    // horizontal or vertical hot layout
	StartPos      float64 // SP in [0,1]: normalized start of the hot region within a tape

	// DataBlocks, when positive, fixes the number of logical blocks stored
	// instead of filling the jukebox to capacity: a partially filled
	// library, as in the paper's gradual-fill scenario (Section 4.8). The
	// blocks plus all replicas must fit.
	DataBlocks int
	// PackAfterData places each tape's hot/replica region immediately
	// after that tape's cold data instead of at the StartPos-scaled
	// position -- "append replicas at the ends of the tapes" in the
	// append-only sense that matters on a partially filled tape (data must
	// be contiguous from the beginning of a helical tape, and locating
	// across blank tape to a far region wastes time). StartPos is ignored
	// when set.
	PackAfterData bool
}

// Layout is an immutable mapping from logical blocks to tape positions.
type Layout struct {
	cfg     Config
	numHot  int
	manual  bool        // built by NewManual: replica counts are caller-chosen
	mutated bool        // modified after construction by AddCopy/RemoveCopy
	copies  [][]Replica // indexed by BlockID; copies[b][0] is the original
	blockAt [][]BlockID // [tape][pos] -> block, or -1 for unused positions

	// posOn is a dense (block, tape) -> position index: posOn[b*Tapes+t]
	// holds pos+1 for block b's copy on tape t, or 0 when the block has no
	// copy there. It makes ReplicaOn an O(1) lookup on the scheduler hot
	// path. nil when blocks*tapes exceeds maxDenseIndex; ReplicaOn then
	// falls back to scanning the (short) copies list.
	posOn []int32
	// tapeSlots[t] lists tape t's occupied positions in ascending position
	// order: the per-tape candidate table consumed by schedulers that need
	// position-sorted traversal without re-sorting per call.
	tapeSlots [][]Slot
	// free[t] is tape t's free-position bitmap: bit p%64 of word p/64 is
	// set exactly when blockAt[t][p] is -1. FirstFree walks it.
	free [][]uint64
}

// Slot is one occupied position on a tape.
type Slot struct {
	Pos   int
	Block BlockID
}

// maxDenseIndex caps the dense replica index at 256 MiB (64M int32
// entries); pathological configurations beyond it use the scan fallback.
const maxDenseIndex = 64 << 20

// finalize builds the derived lookup structures (the dense replica index,
// the per-tape sorted candidate tables and the free-position bitmaps) once
// the copies and blockAt mappings are complete. Both Build and NewManual
// call it last.
func (l *Layout) finalize() {
	n := len(l.copies)
	t := l.cfg.Tapes
	if n*t <= maxDenseIndex {
		l.posOn = make([]int32, n*t)
		for b, cs := range l.copies {
			for _, c := range cs {
				l.posOn[b*t+c.Tape] = int32(c.Pos) + 1
			}
		}
	}
	l.tapeSlots = make([][]Slot, t)
	l.free = make([][]uint64, t)
	words := (l.cfg.TapeCapBlocks + 63) / 64
	bitmaps := make([]uint64, t*words)
	for tape, row := range l.blockAt {
		slots := make([]Slot, 0, len(row))
		free := bitmaps[tape*words : (tape+1)*words : (tape+1)*words]
		for pos, b := range row { // ascending pos: sorted by construction
			if b >= 0 {
				slots = append(slots, Slot{Pos: pos, Block: b})
			} else {
				free[pos/64] |= 1 << (pos % 64)
			}
		}
		l.tapeSlots[tape] = slots
		l.free[tape] = free
	}
}

// Counts returns the number of logical blocks a layout of cfg stores and
// how many of them are hot, or the error Build reports for a configuration
// that fails before any block is placed. The block count derives from the
// jukebox capacity and the replication expansion factor E = 1 + NR*PH/100:
// replicas consume capacity that would otherwise hold cold data, exactly
// as in Section 4.8 of the paper.
func Counts(cfg Config) (numBlocks, numHot int, err error) {
	if cfg.Tapes < 1 {
		return 0, 0, errors.New("layout: need at least one tape")
	}
	if cfg.TapeCapBlocks < 1 {
		return 0, 0, errors.New("layout: tape capacity must be positive")
	}
	if cfg.HotPercent < 0 || cfg.HotPercent > 100 {
		return 0, 0, fmt.Errorf("layout: hot percent %v out of range [0,100]", cfg.HotPercent)
	}
	if cfg.Replicas < 0 || cfg.Replicas > cfg.Tapes-1 {
		return 0, 0, fmt.Errorf("layout: %d replicas impossible with %d tapes (at most one copy per tape)", cfg.Replicas, cfg.Tapes)
	}
	if cfg.StartPos < 0 || cfg.StartPos > 1 {
		return 0, 0, fmt.Errorf("layout: start position %v out of range [0,1]", cfg.StartPos)
	}

	capacity := cfg.Tapes * cfg.TapeCapBlocks
	ph := cfg.HotPercent / 100
	if cfg.DataBlocks > 0 {
		numBlocks = cfg.DataBlocks
		numHot = int(ph * float64(numBlocks))
		if numBlocks+numHot*cfg.Replicas > capacity {
			return 0, 0, fmt.Errorf("layout: %d blocks with %d replicas of %d hot blocks exceed capacity %d",
				numBlocks, cfg.Replicas, numHot, capacity)
		}
	} else {
		e := 1 + float64(cfg.Replicas)*ph
		numBlocks = int(float64(capacity) / e)
		numHot = int(ph * float64(numBlocks))
		// Rounding can leave the physical footprint slightly over capacity;
		// trim whole blocks until it fits.
		for numBlocks+numHot*cfg.Replicas > capacity {
			numBlocks--
			numHot = int(ph * float64(numBlocks))
		}
	}
	if numBlocks < 1 {
		return 0, 0, errors.New("layout: capacity too small for any data")
	}
	if cfg.Kind == Vertical && numHot > cfg.TapeCapBlocks {
		return 0, 0, fmt.Errorf("layout: vertical layout needs %d hot blocks on one tape of capacity %d", numHot, cfg.TapeCapBlocks)
	}
	if cfg.Kind == Vertical && numHot > 0 && cfg.Tapes == 1 && cfg.Replicas > 0 {
		return 0, 0, errors.New("layout: vertical replication needs at least two tapes")
	}
	return numBlocks, numHot, nil
}

// Build computes a layout for the given configuration, storing the blocks
// Counts derives for it.
func Build(cfg Config) (*Layout, error) {
	numBlocks, numHot, err := Counts(cfg)
	if err != nil {
		return nil, err
	}

	// Every hot block gets the same number of copies, every cold block one;
	// carving all replica lists out of a single arena keeps Build to a
	// handful of allocations instead of one tiny slice per block.
	copiesPerHot := cfg.Replicas + 1
	if cfg.Kind == Vertical && cfg.Tapes == 1 {
		copiesPerHot = 1
	}
	numCold := numBlocks - numHot
	arena := make([]Replica, numHot*copiesPerHot+numCold)

	l := &Layout{cfg: cfg, numHot: numHot}
	l.copies = make([][]Replica, numBlocks)
	for b := 0; b < numHot; b++ {
		off := b * copiesPerHot
		l.copies[b] = arena[off : off : off+copiesPerHot]
	}
	for c := 0; c < numCold; c++ {
		off := numHot*copiesPerHot + c
		l.copies[numHot+c] = arena[off : off : off+1]
	}
	l.blockAt = make([][]BlockID, cfg.Tapes)
	rows := make([]BlockID, cfg.Tapes*cfg.TapeCapBlocks)
	for i := range rows {
		rows[i] = -1
	}
	for t := range l.blockAt {
		l.blockAt[t] = rows[t*cfg.TapeCapBlocks : (t+1)*cfg.TapeCapBlocks : (t+1)*cfg.TapeCapBlocks]
	}

	// Assign each hot copy (original + replicas) to a tape. One counting
	// pass sizes the flat per-tape slab, one fill pass populates it.
	scratch := make([]int, 0, copiesPerHot)
	hotCount := make([]int, cfg.Tapes)
	for b := 0; b < numHot; b++ {
		for _, t := range hotCopyTapes(cfg, b, scratch) {
			hotCount[t]++
		}
	}
	perTapeHot := make([][]BlockID, cfg.Tapes)
	hotSlab := make([]BlockID, numHot*copiesPerHot)
	off := 0
	for t := range perTapeHot {
		perTapeHot[t] = hotSlab[off : off : off+hotCount[t]]
		off += hotCount[t]
	}
	for b := 0; b < numHot; b++ {
		for _, t := range hotCopyTapes(cfg, b, scratch) {
			perTapeHot[t] = append(perTapeHot[t], BlockID(b))
		}
	}

	// Place each tape's hot region contiguously, starting at the position
	// selected by SP (SP=0 puts the region at the beginning of the tape,
	// SP=1 at the end) or, when packing, right after the tape's share of
	// cold data.
	var packStart []int
	if cfg.PackAfterData {
		packStart = coldShares(cfg, perTapeHot, numBlocks-numHot)
		if packStart == nil {
			return nil, errors.New("layout: cold data does not fit alongside hot regions")
		}
	}
	for t := 0; t < cfg.Tapes; t++ {
		size := len(perTapeHot[t])
		if size > cfg.TapeCapBlocks {
			return nil, fmt.Errorf("layout: tape %d overflows with %d hot copies", t, size)
		}
		start := int(cfg.StartPos*float64(cfg.TapeCapBlocks-size) + 0.5)
		if cfg.PackAfterData {
			start = packStart[t]
		}
		if start+size > cfg.TapeCapBlocks {
			return nil, fmt.Errorf("layout: tape %d region [%d,%d) exceeds capacity", t, start, start+size)
		}
		for i, b := range perTapeHot[t] {
			pos := start + i
			l.blockAt[t][pos] = b
			l.copies[b] = append(l.copies[b], Replica{Tape: t, Pos: pos})
		}
	}

	// Originals come first in the copies list: for vertical layouts the
	// original lives on tape 0; for horizontal, on tape b mod Tapes. The
	// per-tape assignment above appends in tape order, so reorder when the
	// original is not already first.
	for b := 0; b < numHot; b++ {
		orig := originalTape(cfg, b)
		cs := l.copies[b]
		for i, c := range cs {
			if c.Tape == orig {
				cs[0], cs[i] = cs[i], cs[0]
				break
			}
		}
	}

	// Fill cold blocks round-robin across tapes into ascending free
	// positions, skipping tapes that are full.
	nextFree := make([]int, cfg.Tapes) // scan cursor per tape
	t := 0
	for c := 0; c < numCold; c++ {
		b := BlockID(numHot + c)
		placed := false
		for tries := 0; tries < cfg.Tapes; tries++ {
			tt := (t + tries) % cfg.Tapes
			pos := -1
			for p := nextFree[tt]; p < cfg.TapeCapBlocks; p++ {
				if l.blockAt[tt][p] == -1 {
					pos = p
					break
				}
			}
			if pos >= 0 {
				nextFree[tt] = pos + 1
				l.blockAt[tt][pos] = b
				l.copies[b] = append(l.copies[b], Replica{Tape: tt, Pos: pos})
				t = (tt + 1) % cfg.Tapes
				placed = true
				break
			}
			nextFree[tt] = cfg.TapeCapBlocks
		}
		if !placed {
			return nil, fmt.Errorf("layout: no room for cold block %d", b)
		}
	}
	l.finalize()
	return l, nil
}

// coldShares computes, per tape, how many cold blocks the round-robin fill
// will put on it when each tape's hot region sits immediately after its
// cold share -- i.e. the region start positions for PackAfterData. Returns
// nil if the cold blocks cannot fit.
func coldShares(cfg Config, perTapeHot [][]BlockID, cold int) []int {
	share := make([]int, cfg.Tapes)
	room := make([]int, cfg.Tapes)
	for t := range room {
		room[t] = cfg.TapeCapBlocks - len(perTapeHot[t])
	}
	t := 0
	for c := 0; c < cold; c++ {
		placed := false
		for tries := 0; tries < cfg.Tapes; tries++ {
			tt := (t + tries) % cfg.Tapes
			if share[tt] < room[tt] {
				share[tt]++
				t = (tt + 1) % cfg.Tapes
				placed = true
				break
			}
		}
		if !placed {
			return nil
		}
	}
	return share
}

// hotCopyTapes lists the tapes holding copies of hot block b (original
// first in the vertical sense is handled separately; this list is in
// ascending rotation order). The result is built in buf's storage, so one
// scratch buffer serves every call in a build loop.
func hotCopyTapes(cfg Config, b int, buf []int) []int {
	tapes := buf[:0]
	if cfg.Kind == Vertical {
		tapes = append(tapes, 0)
		if cfg.Tapes > 1 {
			rest := cfg.Tapes - 1
			for r := 0; r < cfg.Replicas; r++ {
				tapes = append(tapes, 1+(b+r)%rest)
			}
		}
		return tapes
	}
	for r := 0; r <= cfg.Replicas; r++ {
		tapes = append(tapes, (b+r)%cfg.Tapes)
	}
	return tapes
}

// originalTape returns the tape that holds the original (first) copy of hot
// block b.
func originalTape(cfg Config, b int) int {
	if cfg.Kind == Vertical {
		return 0
	}
	return b % cfg.Tapes
}

// Config returns the configuration the layout was built from.
func (l *Layout) Config() Config { return l.cfg }

// Tapes returns the number of tapes.
func (l *Layout) Tapes() int { return l.cfg.Tapes }

// TapeCap returns the per-tape capacity in blocks.
func (l *Layout) TapeCap() int { return l.cfg.TapeCapBlocks }

// NumBlocks returns the number of logical blocks stored.
func (l *Layout) NumBlocks() int { return len(l.copies) }

// NumHot returns the number of hot logical blocks (IDs 0..NumHot-1).
func (l *Layout) NumHot() int { return l.numHot }

// NumCold returns the number of cold logical blocks.
func (l *Layout) NumCold() int { return len(l.copies) - l.numHot }

// IsHot reports whether block b is hot.
func (l *Layout) IsHot(b BlockID) bool { return int(b) < l.numHot }

// Replicas returns the physical copies of block b; the original copy is
// first. The returned slice must not be modified.
func (l *Layout) Replicas(b BlockID) []Replica { return l.copies[b] }

// BlockAt returns the logical block stored at (tape, pos), if any.
func (l *Layout) BlockAt(tape, pos int) (BlockID, bool) {
	b := l.blockAt[tape][pos]
	return b, b >= 0
}

// ReplicaOn returns block b's copy on the given tape, if one exists. With
// the dense index in place (the common case) this is a single array load.
func (l *Layout) ReplicaOn(b BlockID, tape int) (Replica, bool) {
	if l.posOn != nil {
		if p := l.posOn[int(b)*l.cfg.Tapes+tape]; p != 0 {
			return Replica{Tape: tape, Pos: int(p) - 1}, true
		}
		return Replica{}, false
	}
	for _, r := range l.copies[b] {
		if r.Tape == tape {
			return r, true
		}
	}
	return Replica{}, false
}

// TapeContents returns tape t's occupied positions in ascending position
// order, precomputed at build time. The returned slice must not be
// modified.
func (l *Layout) TapeContents(t int) []Slot { return l.tapeSlots[t] }

// Validate checks the structural invariants of the layout and returns an
// error describing the first violation. It is used by tests and available to
// callers who construct unusual configurations.
func (l *Layout) Validate() error {
	seen := make(map[Replica]BlockID)
	for b, cs := range l.copies {
		if !l.manual && !l.mutated {
			want := 1
			if l.IsHot(BlockID(b)) && l.cfg.Tapes > 1 {
				want = 1 + l.cfg.Replicas
			}
			if len(cs) != want {
				return fmt.Errorf("block %d has %d copies, want %d", b, len(cs), want)
			}
		}
		tapes := make(map[int]bool)
		for _, c := range cs {
			if c.Tape < 0 || c.Tape >= l.cfg.Tapes || c.Pos < 0 || c.Pos >= l.cfg.TapeCapBlocks {
				return fmt.Errorf("block %d copy %v out of bounds", b, c)
			}
			if tapes[c.Tape] {
				return fmt.Errorf("block %d has two copies on tape %d", b, c.Tape)
			}
			tapes[c.Tape] = true
			if prev, dup := seen[c]; dup {
				return fmt.Errorf("position %v holds both block %d and block %d", c, prev, b)
			}
			seen[c] = BlockID(b)
			if got := l.blockAt[c.Tape][c.Pos]; got != BlockID(b) {
				return fmt.Errorf("blockAt%v = %d, want %d", c, got, b)
			}
		}
	}
	// Every occupied position must be claimed by some copy, and the free
	// bitmap must mark exactly the unoccupied ones.
	for t := range l.blockAt {
		nFree := 0
		for _, w := range l.free[t] {
			nFree += bits.OnesCount64(w)
		}
		for p, b := range l.blockAt[t] {
			if l.free[t][p/64]&(1<<(p%64)) != 0 != (b == -1) {
				return fmt.Errorf("free bitmap disagrees with position (%d,%d), which holds %d", t, p, b)
			}
			if b == -1 {
				nFree--
				continue
			}
			if _, ok := seen[Replica{Tape: t, Pos: p}]; !ok {
				return fmt.Errorf("position (%d,%d) holds block %d but no copy claims it", t, p, b)
			}
		}
		if nFree != 0 {
			return fmt.Errorf("free bitmap of tape %d marks positions past its capacity", t)
		}
	}
	return nil
}
