package layout

import (
	"fmt"
	"math/bits"
	"sort"
)

// Mutation support for online re-replication. A layout built by Build or
// NewManual is normally immutable; the repair subsystem (internal/repair)
// rebuilds lost replicas and reclaims cold excess ones at run time, which
// requires adding and removing copies in place while keeping every derived
// index -- the copies lists, the blockAt grid, the dense posOn index, the
// sorted per-tape slot tables, and the free-position bitmaps --
// consistent. Both mutators flip the `mutated` flag, which relaxes
// Validate's exact copy-count check (a repaired layout legitimately
// differs from its build-time replica counts) while every structural
// invariant still holds.

// FreeBlocks returns the number of unoccupied positions on tape t.
func (l *Layout) FreeBlocks(t int) int {
	return l.cfg.TapeCapBlocks - len(l.tapeSlots[t])
}

// FirstFree returns the lowest unoccupied position on tape t for which ok
// (when non-nil) holds, or -1 when the tape has no acceptable free position.
// It walks the tape's free-position bitmap and calls ok on the free
// positions only, in ascending order, so a failing search costs one word
// per 64 positions plus one call per free position.
func (l *Layout) FirstFree(t int, ok func(pos int) bool) int {
	for w, word := range l.free[t] {
		for ; word != 0; word &= word - 1 {
			if p := w*64 + bits.TrailingZeros64(word); ok == nil || ok(p) {
				return p
			}
		}
	}
	return -1
}

// AddCopy records a new physical copy of block b at (tape, pos). The
// position must be free and the block must not already have a copy on the
// tape (the at-most-one-copy-per-tape invariant).
func (l *Layout) AddCopy(b BlockID, tape, pos int) error {
	if int(b) < 0 || int(b) >= len(l.copies) {
		return fmt.Errorf("layout: AddCopy: no block %d", b)
	}
	if tape < 0 || tape >= l.cfg.Tapes || pos < 0 || pos >= l.cfg.TapeCapBlocks {
		return fmt.Errorf("layout: AddCopy: position (%d,%d) out of bounds", tape, pos)
	}
	if got := l.blockAt[tape][pos]; got != -1 {
		return fmt.Errorf("layout: AddCopy: position (%d,%d) holds block %d", tape, pos, got)
	}
	if _, dup := l.ReplicaOn(b, tape); dup {
		return fmt.Errorf("layout: AddCopy: block %d already has a copy on tape %d", b, tape)
	}
	l.copies[b] = append(l.copies[b], Replica{Tape: tape, Pos: pos})
	l.blockAt[tape][pos] = b
	l.free[tape][pos/64] &^= 1 << (pos % 64)
	if l.posOn != nil {
		l.posOn[int(b)*l.cfg.Tapes+tape] = int32(pos) + 1
	}
	l.insertSlot(tape, pos, b)
	l.mutated = true
	return nil
}

// RemoveCopy deletes block b's copy on the given tape. The sole remaining
// copy of a block cannot be removed (data loss is the fault model's job,
// not the mutation API's).
func (l *Layout) RemoveCopy(b BlockID, tape int) error {
	if int(b) < 0 || int(b) >= len(l.copies) {
		return fmt.Errorf("layout: RemoveCopy: no block %d", b)
	}
	c, ok := l.ReplicaOn(b, tape)
	if !ok {
		return fmt.Errorf("layout: RemoveCopy: block %d has no copy on tape %d", b, tape)
	}
	cs := l.copies[b]
	if len(cs) <= 1 {
		return fmt.Errorf("layout: RemoveCopy: refusing to remove the sole copy of block %d", b)
	}
	for i := range cs {
		if cs[i].Tape == tape {
			l.copies[b] = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	l.blockAt[tape][c.Pos] = -1
	l.free[tape][c.Pos/64] |= 1 << (c.Pos % 64)
	if l.posOn != nil {
		l.posOn[int(b)*l.cfg.Tapes+tape] = 0
	}
	l.removeSlot(tape, c.Pos)
	l.mutated = true
	return nil
}

// insertSlot places (pos, b) into tape t's sorted slot table.
func (l *Layout) insertSlot(t, pos int, b BlockID) {
	slots := l.tapeSlots[t]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Pos >= pos })
	slots = append(slots, Slot{})
	copy(slots[i+1:], slots[i:])
	slots[i] = Slot{Pos: pos, Block: b}
	l.tapeSlots[t] = slots
}

// removeSlot deletes the slot at pos from tape t's sorted slot table.
func (l *Layout) removeSlot(t, pos int) {
	slots := l.tapeSlots[t]
	i := sort.Search(len(slots), func(i int) bool { return slots[i].Pos >= pos })
	if i < len(slots) && slots[i].Pos == pos {
		l.tapeSlots[t] = append(slots[:i], slots[i+1:]...)
	}
}
