// Package jukebox provides an imperative model of a robotic tape library:
// a Deck wraps one drive and a set of tapes and exposes the physical
// operations (mount, locate, read, unload) with the simulated time each
// one takes.
//
// The discrete-event simulator in internal/sim drives its own inlined drive
// state for speed; Deck is the independent model trace.Verify replays
// recorded traces on, so the two implementations of the same physics check
// each other.
package jukebox

import (
	"errors"
	"fmt"

	"tapejuke/internal/tapemodel"
)

// Deck is one drive plus its tape pool. The zero value is not usable; see
// NewDeck. All times are simulated seconds.
type Deck struct {
	prof    tapemodel.Positioner
	blockMB float64
	tapes   int
	capBlk  int

	mounted int // -1 when the drive is empty
	head    int // block boundary on the mounted tape
}

// NewDeck builds a deck of `tapes` tapes of capBlocks blocks of blockMB
// megabytes each, served by a drive with the given timing model.
func NewDeck(prof tapemodel.Positioner, blockMB float64, tapes, capBlocks int) (*Deck, error) {
	if prof == nil {
		return nil, errors.New("jukebox: nil drive profile")
	}
	if blockMB <= 0 || tapes < 1 || capBlocks < 1 {
		return nil, fmt.Errorf("jukebox: invalid geometry (%v MB x %d x %d)", blockMB, tapes, capBlocks)
	}
	return &Deck{
		prof:    prof,
		blockMB: blockMB,
		tapes:   tapes,
		capBlk:  capBlocks,
		mounted: -1,
	}, nil
}

// Mounted returns the mounted tape index, or -1 for an empty drive.
func (d *Deck) Mounted() int { return d.mounted }

func (d *Deck) posMB(pos int) float64 { return float64(pos) * d.blockMB }

// Mount makes `tape` the mounted tape, rewinding and ejecting the current
// one if necessary. Mounting the mounted tape is free. It returns the
// elapsed time, SwitchCost(tape).
func (d *Deck) Mount(tape int) (float64, error) {
	sec, err := d.SwitchCost(tape)
	if err == nil && tape != d.mounted {
		d.mounted, d.head = tape, 0
	}
	return sec, err
}

// SwitchCost returns the time Mount(tape) would take from the current
// state, without performing it: zero for the mounted tape, the initial
// load for an empty drive, otherwise a full switch (rewind, eject, fetch,
// load) from the current head position.
func (d *Deck) SwitchCost(tape int) (float64, error) {
	if tape < 0 || tape >= d.tapes {
		return 0, fmt.Errorf("jukebox: tape %d out of range [0,%d)", tape, d.tapes)
	}
	if tape == d.mounted {
		return 0, nil
	}
	if d.mounted < 0 {
		return d.prof.InitialLoad(), nil
	}
	return d.prof.FullSwitch(d.posMB(d.head)), nil
}

// Unload empties the drive at no cost: the cartridge goes back to the
// library and the head state resets. It models the end of a failed load,
// where the tape never mounted; the mechanical time belongs to the failed
// attempt.
func (d *Deck) Unload() {
	d.mounted = -1
	d.head = 0
}

// ReadBlock positions to `pos` on the mounted tape and reads one block,
// returning the elapsed time (locate + transfer).
func (d *Deck) ReadBlock(pos int) (float64, error) {
	if d.mounted < 0 {
		return 0, errors.New("jukebox: no tape mounted")
	}
	if pos < 0 || pos >= d.capBlk {
		return 0, fmt.Errorf("jukebox: position %d out of range [0,%d)", pos, d.capBlk)
	}
	loc, dir := d.prof.Locate(d.posMB(d.head), d.posMB(pos))
	rd := d.prof.Read(d.blockMB, dir)
	d.head = pos + 1
	return loc + rd, nil
}
