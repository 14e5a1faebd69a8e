package layout

// PosSet is a set of physical positions in one jukebox geometry, one flag
// per tape*TapeCap+pos. It is the one owner of that index: the fault
// model's dead-copy table and the repair planner's reserved destinations
// are PosSets. The storage is allocated by the first Add, so a set that
// is never added to costs no memory and reports every position absent.
type PosSet struct {
	tapes, tapeCap int
	in             []bool
}

// NewPosSet returns an empty set over `tapes` tapes of tapeCap positions.
func NewPosSet(tapes, tapeCap int) PosSet {
	return PosSet{tapes: tapes, tapeCap: tapeCap}
}

// Has reports whether the set holds (tape, pos), a position inside the
// geometry. It inlines to an index computation and one bounded load.
func (s *PosSet) Has(tape, pos int) bool {
	i := tape*s.tapeCap + pos
	return uint(i) < uint(len(s.in)) && s.in[i]
}

// Add puts (tape, pos), a position inside the geometry, in the set.
func (s *PosSet) Add(tape, pos int) {
	if s.in == nil {
		s.in = make([]bool, s.tapes*s.tapeCap)
	}
	s.in[tape*s.tapeCap+pos] = true
}

// Remove takes (tape, pos) out of the set.
func (s *PosSet) Remove(tape, pos int) {
	if i := tape*s.tapeCap + pos; uint(i) < uint(len(s.in)) {
		s.in[i] = false
	}
}
