package layout

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mutLayouts returns the layouts the mutation tests run on, by name: a
// built one whose tapes fit in one bitmap word, and a manual one of 130
// positions per tape whose free positions straddle word boundaries. In
// both, block 0 is hot with two copies and block NumHot is cold with one.
func mutLayouts(t *testing.T) map[string]*Layout {
	t.Helper()
	built, err := Build(Config{Tapes: 4, TapeCapBlocks: 8, HotPercent: 25, Replicas: 1, DataBlocks: 12})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	copies := [][]Replica{
		{{Tape: 0, Pos: 70}, {Tape: 1, Pos: 64}},
		{{Tape: 2, Pos: 0}},
		{{Tape: 2, Pos: 129}},
	}
	// Fill tape 0 except positions 63, 128 and 129, so its first free
	// position sits at the end of the first word.
	for p := 0; p < 128; p++ {
		if p != 63 && p != 70 {
			copies = append(copies, []Replica{{Tape: 0, Pos: p}})
		}
	}
	manual, err := NewManual(3, 130, 1, copies)
	if err != nil {
		t.Fatalf("NewManual: %v", err)
	}
	return map[string]*Layout{"built": built, "manual": manual}
}

// naiveFirstFree is the blockAt scan FirstFree replaced.
func naiveFirstFree(l *Layout, t int, ok func(pos int) bool) int {
	for p, b := range l.blockAt[t] {
		if b == -1 && (ok == nil || ok(p)) {
			return p
		}
	}
	return -1
}

// checkFirstFree compares FirstFree on every tape with the naive scan
// under a nil, an always-false and a random-subset predicate: same result,
// and the predicate asked about the same positions in the same order.
func checkFirstFree(t *testing.T, l *Layout, rng *rand.Rand) {
	t.Helper()
	for tp := 0; tp < l.Tapes(); tp++ {
		subset := make([]bool, l.TapeCap())
		for p := range subset {
			subset[p] = rng.Intn(3) == 0
		}
		preds := map[string]func(int) bool{
			"nil":    nil,
			"never":  func(int) bool { return false },
			"subset": func(p int) bool { return subset[p] },
		}
		for name, ok := range preds {
			var got, want []int
			record := func(calls *[]int) func(int) bool {
				if ok == nil {
					return nil
				}
				return func(p int) bool { *calls = append(*calls, p); return ok(p) }
			}
			g, w := l.FirstFree(tp, record(&got)), naiveFirstFree(l, tp, record(&want))
			if g != w || !slices.Equal(got, want) {
				t.Fatalf("tape %d, %s predicate: FirstFree = %d asking %v, scan = %d asking %v",
					tp, name, g, got, w, want)
			}
		}
	}
}

func TestAddCopyMaintainsIndexes(t *testing.T) {
	for name, l := range mutLayouts(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			checkFirstFree(t, l, rng)
			b := BlockID(l.NumHot()) // a cold block: exactly one copy
			if n := len(l.Replicas(b)); n != 1 {
				t.Fatalf("cold block %d has %d copies before mutation", b, n)
			}
			// Find a tape without a copy of b and its first free position.
			dst := -1
			for tp := 0; tp < l.Tapes(); tp++ {
				if _, ok := l.ReplicaOn(b, tp); !ok && l.FreeBlocks(tp) > 0 {
					dst = tp
					break
				}
			}
			if dst < 0 {
				t.Fatal("no tape with spare capacity")
			}
			pos := l.FirstFree(dst, nil)
			if pos < 0 {
				t.Fatal("FirstFree found nothing on a tape with FreeBlocks > 0")
			}
			free := l.FreeBlocks(dst)

			if err := l.AddCopy(b, dst, pos); err != nil {
				t.Fatalf("AddCopy: %v", err)
			}
			checkFirstFree(t, l, rng)
			if c, ok := l.ReplicaOn(b, dst); !ok || c.Pos != pos {
				t.Errorf("ReplicaOn(%d,%d) = %v,%v, want pos %d", b, dst, c, ok, pos)
			}
			if got, ok := l.BlockAt(dst, pos); !ok || got != b {
				t.Errorf("BlockAt(%d,%d) = %v,%v, want %d", dst, pos, got, ok, b)
			}
			if got := l.FreeBlocks(dst); got != free-1 {
				t.Errorf("FreeBlocks = %d, want %d", got, free-1)
			}
			slots := l.TapeContents(dst)
			if !sort.SliceIsSorted(slots, func(i, j int) bool { return slots[i].Pos < slots[j].Pos }) {
				t.Error("TapeContents not position-sorted after AddCopy")
			}
			found := false
			for _, s := range slots {
				if s.Pos == pos && s.Block == b {
					found = true
				}
			}
			if !found {
				t.Error("new copy missing from TapeContents")
			}
			if err := l.Validate(); err != nil {
				t.Errorf("Validate after AddCopy: %v", err)
			}

			// Duplicate copy on the same tape and occupied positions are rejected.
			if err := l.AddCopy(b, dst, l.FirstFree(dst, nil)); err == nil {
				t.Error("AddCopy allowed a second copy on the same tape")
			}
			checkFirstFree(t, l, rng)
			orig := l.Replicas(b)[0]
			other := BlockID(int(b) + 1)
			if err := l.AddCopy(other, orig.Tape, orig.Pos); err == nil {
				t.Error("AddCopy allowed an occupied position")
			}
			checkFirstFree(t, l, rng)
		})
	}
}

func TestRemoveCopyMaintainsIndexes(t *testing.T) {
	for name, l := range mutLayouts(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			b := BlockID(0) // hot: original + 1 replica
			cs := l.Replicas(b)
			if len(cs) != 2 {
				t.Fatalf("hot block has %d copies, want 2", len(cs))
			}
			victim := cs[1]
			free := l.FreeBlocks(victim.Tape)
			if err := l.RemoveCopy(b, victim.Tape); err != nil {
				t.Fatalf("RemoveCopy: %v", err)
			}
			checkFirstFree(t, l, rng)
			if _, ok := l.ReplicaOn(b, victim.Tape); ok {
				t.Error("ReplicaOn still sees the removed copy")
			}
			if _, ok := l.BlockAt(victim.Tape, victim.Pos); ok {
				t.Error("BlockAt still occupied after RemoveCopy")
			}
			if got := l.FreeBlocks(victim.Tape); got != free+1 {
				t.Errorf("FreeBlocks = %d, want %d", got, free+1)
			}
			for _, s := range l.TapeContents(victim.Tape) {
				if s.Pos == victim.Pos {
					t.Error("removed copy still listed in TapeContents")
				}
			}
			if err := l.Validate(); err != nil {
				t.Errorf("Validate after RemoveCopy: %v", err)
			}

			// The sole remaining copy is protected.
			if err := l.RemoveCopy(b, l.Replicas(b)[0].Tape); err == nil {
				t.Error("RemoveCopy deleted the sole copy")
			}
			checkFirstFree(t, l, rng)
			// Removing a copy that does not exist fails.
			if err := l.RemoveCopy(b, victim.Tape); err == nil {
				t.Error("RemoveCopy succeeded on an absent copy")
			}
			checkFirstFree(t, l, rng)
		})
	}
}

func TestAddRemoveRoundTrip(t *testing.T) {
	for name, l := range mutLayouts(t) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			b := BlockID(0)
			victim := l.Replicas(b)[1]
			if err := l.RemoveCopy(b, victim.Tape); err != nil {
				t.Fatalf("RemoveCopy: %v", err)
			}
			checkFirstFree(t, l, rng)
			if err := l.AddCopy(b, victim.Tape, victim.Pos); err != nil {
				t.Fatalf("AddCopy back: %v", err)
			}
			checkFirstFree(t, l, rng)
			if err := l.Validate(); err != nil {
				t.Errorf("Validate after round trip: %v", err)
			}
			if c, ok := l.ReplicaOn(b, victim.Tape); !ok || c != victim {
				t.Errorf("round trip lost the copy: %v, %v", c, ok)
			}
		})
	}
}
