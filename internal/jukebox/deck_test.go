package jukebox

import (
	"math"
	"testing"

	"tapejuke/internal/sched"
	"tapejuke/internal/tapemodel"
)

func newDeck(t *testing.T) *Deck {
	t.Helper()
	d, err := NewDeck(tapemodel.EXB8505XL(), 16, 10, 448)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDeckConstruction(t *testing.T) {
	bad := []struct {
		prof    tapemodel.Positioner
		mb      float64
		tapes   int
		capBlks int
	}{
		{nil, 16, 10, 448},
		{tapemodel.EXB8505XL(), 0, 10, 448},
		{tapemodel.EXB8505XL(), 16, 0, 448},
		{tapemodel.EXB8505XL(), 16, 10, 0},
	}
	for i, c := range bad {
		if _, err := NewDeck(c.prof, c.mb, c.tapes, c.capBlks); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	d := newDeck(t)
	if d.Mounted() != -1 || d.head != 0 {
		t.Error("fresh deck not in the empty state")
	}
}

func TestDeckMountSemantics(t *testing.T) {
	d := newDeck(t)
	// First mount into an empty drive: robot + load only.
	sec, err := d.Mount(3)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(sec, 62) { // 20 + 42
		t.Errorf("initial load = %v, want 62", sec)
	}
	// Re-mounting the mounted tape is free.
	sec, err = d.Mount(3)
	if err != nil || sec != 0 {
		t.Errorf("same-tape mount = %v (%v), want 0", sec, err)
	}
	// Read something, then switch: rewind + BOT + 81.
	if _, err := d.ReadBlock(10); err != nil {
		t.Fatal(err)
	}
	sec, err = d.Mount(4)
	if err != nil {
		t.Fatal(err)
	}
	prof := tapemodel.EXB8505XL()
	want := prof.FullSwitch(11 * 16)
	if !almost(sec, want) {
		t.Errorf("switch = %v, want %v", sec, want)
	}
	if d.head != 0 || d.Mounted() != 4 {
		t.Error("switch did not reset the head")
	}
	if _, err := d.Mount(99); err == nil {
		t.Error("out-of-range tape accepted")
	}
}

func TestDeckReadAccounting(t *testing.T) {
	d := newDeck(t)
	if _, err := d.ReadBlock(0); err == nil {
		t.Error("read with empty drive accepted")
	}
	if _, err := d.Mount(0); err != nil {
		t.Fatal(err)
	}
	prof := tapemodel.EXB8505XL()
	sec, err := d.ReadBlock(10)
	if err != nil {
		t.Fatal(err)
	}
	wantLoc := prof.LocateForward(160)
	wantRead := prof.Read(16, tapemodel.Forward)
	if !almost(sec, wantLoc+wantRead) {
		t.Errorf("read = %v, want %v", sec, wantLoc+wantRead)
	}
	if d.head != 11 {
		t.Errorf("head = %d, want 11", d.head)
	}
	if _, err := d.ReadBlock(448); err == nil {
		t.Error("out-of-range position accepted")
	}
	if d.head != 11 {
		t.Errorf("rejected read moved the head to %d", d.head)
	}
}

// The deck must agree exactly with the scheduling cost model the
// simulator charges: two implementations of the same physics, which is
// what lets trace.Verify replay a simulated trace on a deck.
func TestDeckAgreesWithCostModel(t *testing.T) {
	d := newDeck(t)
	costs := &sched.CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16}
	mounted, head := -1, 0
	for _, tp := range []int{2, 2, 7, 0} {
		got, err := d.Mount(tp)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		if tp != mounted {
			want = costs.SwitchCost(mounted, head, tp)
			mounted, head = tp, 0
		}
		if got != want {
			t.Errorf("mount %d = %v, cost model %v", tp, got, want)
		}
		for _, p := range []int{5, 9, 30, 12, 3, 447} {
			got, err := d.ReadBlock(p)
			if err != nil {
				t.Fatal(err)
			}
			loc, rd, newHead := costs.ServeOneParts(head, p)
			if got != loc+rd || d.head != newHead {
				t.Errorf("read %d from %d = %v (head %d), cost model %v (head %d)",
					p, head, got, d.head, loc+rd, newHead)
			}
			head = newHead
		}
	}
}
