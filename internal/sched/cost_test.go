package sched

import (
	"math"
	"testing"

	"tapejuke/internal/tapemodel"
)

func testCosts() *CostModel {
	return &CostModel{Prof: tapemodel.EXB8505XL(), BlockMB: 16}
}

func TestServeOneForward(t *testing.T) {
	c := testCosts()
	// Head at block 0, target block 10: forward locate 160 MB (long segment),
	// then a 16 MB forward read.
	sec, head := c.ServeOne(0, 10)
	wantLoc := 14.342 + 0.028*160
	wantRead := 0.38 + 1.77*16
	if math.Abs(sec-(wantLoc+wantRead)) > 1e-9 {
		t.Errorf("ServeOne(0,10) = %v, want %v", sec, wantLoc+wantRead)
	}
	if head != 11 {
		t.Errorf("new head = %d, want 11", head)
	}
}

func TestServeOneSequential(t *testing.T) {
	c := testCosts()
	// Reading the block the head is parked at requires no locate.
	sec, head := c.ServeOne(5, 5)
	wantRead := 0.38 + 1.77*16
	if math.Abs(sec-wantRead) > 1e-9 {
		t.Errorf("sequential read = %v, want %v", sec, wantRead)
	}
	if head != 6 {
		t.Errorf("new head = %d, want 6", head)
	}
}

func TestServeOneReverse(t *testing.T) {
	c := testCosts()
	// Head at block 10, target block 5: reverse locate 80 MB, reverse read.
	sec, _ := c.ServeOne(10, 5)
	wantLoc := 13.74 + 0.0286*80
	wantRead := 1.77 * 16.0
	if math.Abs(sec-(wantLoc+wantRead)) > 1e-9 {
		t.Errorf("reverse ServeOne = %v, want %v", sec, wantLoc+wantRead)
	}
	// Reverse to block 0 pays the BOT overhead.
	sec0, _ := c.ServeOne(10, 0)
	wantLoc0 := 13.74 + 0.0286*160 + 21
	if math.Abs(sec0-(wantLoc0+wantRead)) > 1e-9 {
		t.Errorf("reverse-to-BOT ServeOne = %v, want %v", sec0, wantLoc0+wantRead)
	}
}

func TestExecTimeAdds(t *testing.T) {
	c := testCosts()
	t1, h1 := c.ServeOne(0, 3)
	t2, h2 := c.ServeOne(h1, 9)
	total, final := c.ExecTime(0, []int{3, 9})
	if math.Abs(total-(t1+t2)) > 1e-9 {
		t.Errorf("ExecTime = %v, want %v", total, t1+t2)
	}
	if final != h2 {
		t.Errorf("final head = %d, want %d", final, h2)
	}
	if zero, h := c.ExecTime(7, nil); zero != 0 || h != 7 {
		t.Error("empty schedule should cost nothing and keep the head")
	}
}

func TestSwitchCost(t *testing.T) {
	c := testCosts()
	if got := c.SwitchCost(3, 100, 3); got != 0 {
		t.Errorf("same-tape switch = %v, want 0", got)
	}
	// Empty drive: robot + load only.
	if got, want := c.SwitchCost(-1, 0, 2), 20.0+42.0; got != want {
		t.Errorf("empty-drive load = %v, want %v", got, want)
	}
	// Replacing a tape with the head at block 100 (1600 MB): rewind + BOT +
	// eject + robot + load.
	want := (13.74 + 0.0286*1600) + 21 + 81
	if got := c.SwitchCost(0, 100, 2); math.Abs(got-want) > 1e-9 {
		t.Errorf("full switch = %v, want %v", got, want)
	}
}

func TestEffectiveBandwidth(t *testing.T) {
	c := testCosts()
	// Serving more blocks in one mount yields higher effective bandwidth.
	one := c.EffectiveBandwidth(0, 0, 1, 0, []int{10})
	four := c.EffectiveBandwidth(0, 0, 1, 0, []int{10, 11, 12, 13})
	if four <= one {
		t.Errorf("batching should raise effective bandwidth: one=%v four=%v", one, four)
	}
	// The mounted tape avoids the switch cost entirely.
	mounted := c.EffectiveBandwidth(1, 0, 1, 0, []int{10})
	if mounted <= one {
		t.Errorf("mounted tape should beat a switch: mounted=%v switched=%v", mounted, one)
	}
	if got := c.EffectiveBandwidth(0, 0, 1, 0, nil); got != 0 {
		t.Errorf("empty schedule bandwidth = %v, want 0", got)
	}
	// Effective bandwidth can never exceed the streaming rate.
	stream := c.Prof.StreamingRateMBps()
	if four > stream {
		t.Errorf("effective bandwidth %v exceeds streaming rate %v", four, stream)
	}
}

// TestEnableTableSerpentine asserts the cost model refuses a table for the
// serpentine positioner and keeps serving bit-identical costs through the
// interface path.
func TestEnableTableSerpentine(t *testing.T) {
	tabled := &CostModel{Prof: tapemodel.DLT7000Class(), BlockMB: 16}
	if tabled.EnableTable(448) {
		t.Fatal("EnableTable must report false for a serpentine positioner")
	}
	plain := &CostModel{Prof: tapemodel.DLT7000Class(), BlockMB: 16}
	for _, pair := range [][2]int{{0, 10}, {10, 0}, {5, 5}, {447, 3}, {3, 447}} {
		gotLoc, gotRead, gotHead := tabled.ServeOneParts(pair[0], pair[1])
		wantLoc, wantRead, wantHead := plain.ServeOneParts(pair[0], pair[1])
		if math.Float64bits(gotLoc) != math.Float64bits(wantLoc) ||
			math.Float64bits(gotRead) != math.Float64bits(wantRead) ||
			gotHead != wantHead {
			t.Errorf("ServeOneParts(%d, %d) = (%v, %v, %d), interface path says (%v, %v, %d)",
				pair[0], pair[1], gotLoc, gotRead, gotHead, wantLoc, wantRead, wantHead)
		}
	}
}

// TestEnableTableBitIdentical asserts that enabling the table on a
// piecewise-linear profile changes no cost bit anywhere on the grid.
func TestEnableTableBitIdentical(t *testing.T) {
	tabled := testCosts()
	if !tabled.EnableTable(448) {
		t.Fatal("EnableTable must succeed on the exact 16 MB grid")
	}
	plain := testCosts()
	for from := 0; from <= 448; from += 7 {
		for to := 0; to <= 448; to += 11 {
			gotSec, gotDir := tabled.Locate(from, to)
			wantSec, wantDir := plain.Locate(from, to)
			if math.Float64bits(gotSec) != math.Float64bits(wantSec) || gotDir != wantDir {
				t.Fatalf("Locate(%d, %d) = (%v, %v), interface path says (%v, %v)",
					from, to, gotSec, gotDir, wantSec, wantDir)
			}
		}
	}
	for _, head := range []int{0, 1, 100, 448} {
		if got, want := tabled.SwitchCost(0, head, 2), plain.SwitchCost(0, head, 2); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("SwitchCost(0, %d, 2) = %v, interface path says %v", head, got, want)
		}
	}
	if got, want := tabled.SwitchCost(-1, 0, 2), plain.SwitchCost(-1, 0, 2); got != want {
		t.Errorf("empty-drive SwitchCost = %v, interface path says %v", got, want)
	}
}
