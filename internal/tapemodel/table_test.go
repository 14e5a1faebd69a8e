package tapemodel

import (
	"math"
	"testing"
)

// tableProfiles are the piecewise-linear profiles the table must reproduce.
func tableProfiles() []*Profile {
	return []*Profile{EXB8505XL(), FastHelical()}
}

// FuzzCostTableEquivalence proves the dense cost table reproduces the
// Profile piecewise-linear costs exactly -- bit-equal float64, not merely
// within tolerance -- for arbitrary block pairs on the grid. Bit equality
// is the property the simulator relies on: the table-backed cost model
// must leave every event stream unchanged.
func FuzzCostTableEquivalence(f *testing.F) {
	f.Add(0, 0, 16.0)
	f.Add(0, 447, 16.0)
	f.Add(447, 0, 16.0)
	f.Add(13, 12, 16.0)
	f.Add(100, 100, 16.0)
	f.Add(5, 200, 0.25)
	f.Add(31, 7, 2048.0)
	f.Fuzz(func(t *testing.T, from, to int, blockMB float64) {
		const maxBlocks = 448
		if from < 0 || from > maxBlocks || to < 0 || to > maxBlocks {
			t.Skip()
		}
		if blockMB <= 0 || math.IsInf(blockMB, 0) || math.IsNaN(blockMB) || blockMB > 1e6 {
			t.Skip()
		}
		for _, prof := range tableProfiles() {
			tab := NewCostTable(prof, blockMB, maxBlocks)
			if tab == nil {
				// Inexact grid: rejecting the table is the correct
				// behavior, nothing to compare.
				continue
			}
			fromMB := float64(from) * blockMB
			toMB := float64(to) * blockMB

			gotSec, gotDir := tab.Locate(from, to)
			wantSec, wantDir := prof.Locate(fromMB, toMB)
			if math.Float64bits(gotSec) != math.Float64bits(wantSec) || gotDir != wantDir {
				t.Errorf("%s: Locate(%d, %d) block=%v = (%v, %v), profile says (%v, %v)",
					prof.Name, from, to, blockMB, gotSec, gotDir, wantSec, wantDir)
			}
			if got, want := tab.ReadBlock(gotDir), prof.Read(blockMB, wantDir); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: ReadBlock(%v) block=%v = %v, profile says %v",
					prof.Name, gotDir, blockMB, got, want)
			}
			if got, want := tab.FullSwitch(from), prof.FullSwitch(fromMB); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: FullSwitch(%d) block=%v = %v, profile says %v",
					prof.Name, from, blockMB, got, want)
			}
		}
	})
}

// TestCostTableExhaustiveGrid sweeps every block pair of the benchmark
// configuration's grid (448 16 MB blocks) and asserts bit equality on the
// complete Locate surface, plus the scalar costs, for each tabulable
// profile. The fuzz test samples; this nails the exact grid the simulator
// runs on.
func TestCostTableExhaustiveGrid(t *testing.T) {
	const (
		blockMB   = 16.0
		maxBlocks = 448
	)
	for _, prof := range tableProfiles() {
		tab := NewCostTable(prof, blockMB, maxBlocks)
		if tab == nil {
			t.Fatalf("%s: expected a table on the exact 16 MB grid", prof.Name)
		}
		for from := 0; from <= maxBlocks; from++ {
			fromMB := float64(from) * blockMB
			if got, want := tab.FullSwitch(from), prof.FullSwitch(fromMB); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: FullSwitch(%d) = %v, profile says %v", prof.Name, from, got, want)
			}
			for to := 0; to <= maxBlocks; to++ {
				gotSec, gotDir := tab.Locate(from, to)
				wantSec, wantDir := prof.Locate(fromMB, float64(to)*blockMB)
				if math.Float64bits(gotSec) != math.Float64bits(wantSec) || gotDir != wantDir {
					t.Fatalf("%s: Locate(%d, %d) = (%v, %v), profile says (%v, %v)",
						prof.Name, from, to, gotSec, gotDir, wantSec, wantDir)
				}
			}
		}
		if got, want := tab.SwitchTime(), prof.SwitchTime(); got != want {
			t.Errorf("%s: SwitchTime = %v, want %v", prof.Name, got, want)
		}
		if got, want := tab.InitialLoad(), prof.InitialLoad(); got != want {
			t.Errorf("%s: InitialLoad = %v, want %v", prof.Name, got, want)
		}
	}
}

// TestSerpentineBypassesTable asserts the serpentine model gets no table --
// its locate cost depends on physical track geometry, not logical block
// distance, so distance-indexed entries cannot represent it -- and that a
// CostModel built over it still serves costs through the interface path.
func TestSerpentineBypassesTable(t *testing.T) {
	s := DLT7000Class()
	if tab := NewCostTable(s, 16.0, 448); tab != nil {
		t.Fatal("serpentine positioner must not get a cost table")
	}
}

// TestInexactGridRejected asserts that a block size whose multiples do not
// all land exactly on the float64 grid yields no table: distance-indexed
// lookups could then differ from Profile.Locate's megabyte-offset
// subtraction in the last bit, and the table is only allowed to exist when
// it is bit-exact. 0.1 is the canonical non-representable decimal;
// powers of two (16, 0.25) must keep their tables.
func TestInexactGridRejected(t *testing.T) {
	prof := EXB8505XL()
	if tab := NewCostTable(prof, 0.1, 448); tab != nil {
		t.Error("0.1 MB blocks are not exactly representable; table must be rejected")
	}
	if tab := NewCostTable(prof, 16.0, 448); tab == nil {
		t.Error("16 MB blocks are exact; table must be built")
	}
	if tab := NewCostTable(prof, 0.25, 448); tab == nil {
		t.Error("0.25 MB blocks are exact; table must be built")
	}
	if tab := NewCostTable(prof, 16.0, -1); tab != nil {
		t.Error("negative grid must be rejected")
	}
}
