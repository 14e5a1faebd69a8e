package layout

import (
	"strings"
	"testing"
)

func TestNewManualBasics(t *testing.T) {
	l, err := NewManual(2, 10, 1, [][]Replica{
		{{Tape: 0, Pos: 3}, {Tape: 1, Pos: 7}}, // hot, replicated
		{{Tape: 1, Pos: 0}},                    // cold
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Tapes() != 2 || l.TapeCap() != 10 {
		t.Errorf("geometry %d x %d, want 2 x 10", l.Tapes(), l.TapeCap())
	}
	if l.NumBlocks() != 2 || l.NumHot() != 1 || l.NumCold() != 1 {
		t.Errorf("counts: blocks=%d hot=%d cold=%d", l.NumBlocks(), l.NumHot(), l.NumCold())
	}
	if b, ok := l.BlockAt(1, 7); !ok || b != 0 {
		t.Errorf("BlockAt(1,7) = %d,%v", b, ok)
	}
	if _, ok := l.BlockAt(0, 9); ok {
		t.Error("empty position reported occupied")
	}
}

func TestNewManualErrors(t *testing.T) {
	cases := []struct {
		name   string
		tapes  int
		cap_   int
		numHot int
		copies [][]Replica
		want   string
	}{
		{"no tapes", 0, 10, 0, [][]Replica{{{0, 0}}}, "at least one tape"},
		{"no capacity", 1, 0, 0, [][]Replica{{{0, 0}}}, "at least one tape"},
		{"numHot too big", 1, 10, 2, [][]Replica{{{0, 0}}}, "numHot"},
		{"negative numHot", 1, 10, -1, [][]Replica{{{0, 0}}}, "numHot"},
		{"no blocks", 1, 10, 0, nil, "no blocks"},
		{"empty copies", 1, 10, 0, [][]Replica{{}}, "no copies"},
		{"tape out of range", 1, 10, 0, [][]Replica{{{1, 0}}}, "out of bounds"},
		{"pos out of range", 1, 10, 0, [][]Replica{{{0, 10}}}, "out of bounds"},
		{"negative pos", 1, 10, 0, [][]Replica{{{0, -1}}}, "out of bounds"},
		{"two copies one tape", 2, 10, 0, [][]Replica{{{0, 1}, {0, 2}}}, "two copies"},
		{"position collision", 2, 10, 0, [][]Replica{{{0, 1}}, {{0, 1}}}, "occupied"},
	}
	for _, c := range cases {
		_, err := NewManual(c.tapes, c.cap_, c.numHot, c.copies)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// Validate must detect structural corruption, exercised by tampering with a
// valid layout from inside the package.
func TestValidateDetectsCorruption(t *testing.T) {
	build := func() *Layout {
		l, err := NewManual(2, 10, 1, [][]Replica{
			{{Tape: 0, Pos: 3}, {Tape: 1, Pos: 7}},
			{{Tape: 1, Pos: 0}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}

	l := build()
	l.blockAt[0][3] = 1 // index disagrees with the copy list
	if err := l.Validate(); err == nil {
		t.Error("mismatched index not detected")
	}

	l = build()
	l.blockAt[0][9] = 0 // phantom occupancy no copy claims
	if err := l.Validate(); err == nil {
		t.Error("unclaimed position not detected")
	}

	l = build()
	l.copies[1] = append(l.copies[1], Replica{Tape: 0, Pos: 5})
	l.blockAt[0][5] = 1
	l.copies[1] = append(l.copies[1], Replica{Tape: 0, Pos: 6}) // 2 copies on tape 0
	l.blockAt[0][6] = 1
	if err := l.Validate(); err == nil {
		t.Error("duplicate per-tape copy not detected")
	}

	l = build()
	l.copies[0][1] = Replica{Tape: 5, Pos: 99} // out of bounds
	if err := l.Validate(); err == nil {
		t.Error("out-of-bounds copy not detected")
	}

	l = build()
	l.free[1][0] |= 1 << 7 // occupied position (1,7) marked free
	if err := l.Validate(); err == nil {
		t.Error("occupied position in the free bitmap not detected")
	}

	l = build()
	l.free[0][0] &^= 1 << 9 // free position (0,9) missing from the bitmap
	if err := l.Validate(); err == nil {
		t.Error("free position missing from the bitmap not detected")
	}

	l = build()
	l.free[0][0] ^= 1<<3 | 1<<4 // occupied (0,3) and free (0,4) swapped
	if err := l.Validate(); err == nil {
		t.Error("free bitmap with the right count but wrong positions not detected")
	}

	l = build()
	l.free[0][0] |= 1 << 10 // a bit past the tape's 10 positions
	if err := l.Validate(); err == nil {
		t.Error("free bit past capacity not detected")
	}

	// Non-manual layouts additionally pin replica counts.
	built, err := Build(Config{Tapes: 4, TapeCapBlocks: 20, HotPercent: 20, Replicas: 2, StartPos: 1})
	if err != nil {
		t.Fatal(err)
	}
	built.copies[0] = built.copies[0][:1] // drop a replica
	if err := built.Validate(); err == nil {
		t.Error("missing replica not detected on built layout")
	}
}
