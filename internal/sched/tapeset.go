package sched

import mathbits "math/bits"

// TapeSet is a set of tape indices: one bit per tape, in as many 64-bit
// words as the jukebox's tape count needs. A reschedule collects in one the
// tapes it writes per-tape rows for, walks only those, and clears only
// those rows before the next reschedule, so a short queue costs in
// proportion to its pending copies rather than to the number of tapes.
// The zero value is an empty set over no tapes; Reset sizes it.
type TapeSet struct {
	w []uint64
}

// Reset empties the set and sizes it for tapes 0..n-1.
func (s *TapeSet) Reset(n int) {
	clear(s.w)
	words := (n + 63) >> 6
	if cap(s.w) < words {
		s.w = make([]uint64, words)
	}
	s.w = s.w[:words]
}

// Add puts tape t in the set.
func (s *TapeSet) Add(t int) { s.w[t>>6] |= 1 << uint(t&63) }

// Words returns the set's words, for reading only: tape t is in the set
// when bit t%64 of word t/64 is set. Walking the set in ascending order is
//
//	for i, w := range s.Words() {
//		for ; w != 0; w &= w - 1 {
//			t := i<<6 | bits.TrailingZeros64(w)
//			...
//		}
//	}
//
// which keeps each word in a register: the hot loops of the envelope
// builder walk the set once per extension step.
func (s *TapeSet) Words() []uint64 { return s.w }

// JukeboxOrder calls f for each tape of the set in jukebox order from tape
// first -- first, first+1, ... up to the last tape, then wrapping to tape
// 0 and on up to first-1 -- until f returns false. From State.jukeboxFirst
// it visits the tapes in ascending State.JukeboxRank.
func (s *TapeSet) JukeboxOrder(first int, f func(t int) bool) {
	for i, w := range s.w {
		for ; w != 0; w &= w - 1 {
			if t := i<<6 | mathbits.TrailingZeros64(w); t >= first && !f(t) {
				return
			}
		}
	}
	for i, w := range s.w {
		for ; w != 0; w &= w - 1 {
			if t := i<<6 | mathbits.TrailingZeros64(w); t >= first || !f(t) {
				return
			}
		}
	}
}

// jukeboxFirst is the tape jukebox order starts at: the mounted tape, or
// tape 0 for an empty drive. Every tie between tapes breaks in jukebox
// order, and this and JukeboxRank are its one definition.
func (st *State) jukeboxFirst() int {
	return max(st.Mounted, 0)
}

// JukeboxRank is the tape's place in jukebox order: 0 for the mounted tape
// (tape 0 for an empty drive), rising through the tapes above it and
// wrapping past the last tape to tape 0.
func (st *State) JukeboxRank(tape int) int {
	n := st.Layout.Tapes()
	return (tape - st.jukeboxFirst() + n) % n
}
