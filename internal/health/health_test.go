package health

import (
	"math"
	"testing"
)

func TestScorerDecayAndWear(t *testing.T) {
	s := NewScorer(3, 2, 100, 0.5)
	s.NoteTapeError(1, 0)
	s.NoteTapeError(1, 0)
	if got := s.TapeScore(1, 0); got != 2 {
		t.Errorf("score right after two errors = %v, want 2", got)
	}
	if got := s.TapeScore(1, 100); math.Abs(got-1) > 1e-12 {
		t.Errorf("score one half-life later = %v, want 1", got)
	}
	if got := s.TapeScore(0, 100); got != 0 {
		t.Errorf("untouched tape scores %v, want 0", got)
	}

	// Wear is undecayed: four mounts add 2.0 at any time.
	for i := 0; i < 4; i++ {
		s.NoteMount(2)
	}
	if s.mounts[2] != 4 {
		t.Errorf("mounts = %d, want 4", s.mounts[2])
	}
	if got := s.TapeScore(2, 1e9); got != 2 {
		t.Errorf("wear-only score = %v, want 2", got)
	}
}

func TestScorerDriveReset(t *testing.T) {
	s := NewScorer(1, 2, 100, 0)
	s.NoteDriveError(0, 10)
	s.NoteDriveError(0, 10)
	if got := s.DriveScore(0, 10); got != 2 {
		t.Errorf("drive score = %v, want 2", got)
	}
	s.ResetDrive(0)
	if got := s.DriveScore(0, 10); got != 0 {
		t.Errorf("drive score after reset = %v, want 0", got)
	}
	if got := s.DriveScore(1, 10); got != 0 {
		t.Errorf("other drive score = %v, want 0", got)
	}
}

func TestScorerNoDecayWhenDisabled(t *testing.T) {
	s := NewScorer(1, 1, 0, 0) // non-positive half-life: no decay
	s.NoteTapeError(0, 0)
	if got := s.TapeScore(0, 1e12); got != 1 {
		t.Errorf("undecayed score = %v, want 1", got)
	}
}

func TestScrubberCoversEveryPosition(t *testing.T) {
	const tapes, capBlocks, region = 3, 10, 4
	s := NewScrubber(tapes, capBlocks, region)
	seen := make(map[[2]int]int)
	steps := 0
	for {
		tape, start, n, ok := s.Next(nil)
		if !ok {
			t.Fatal("Next gave up with no skip function")
		}
		if start+n > capBlocks {
			t.Fatalf("region [%d,%d) overruns tape capacity %d", start, start+n, capBlocks)
		}
		for p := start; p < start+n; p++ {
			seen[[2]int{tape, p}]++
		}
		steps++
		if len(seen) == tapes*capBlocks && seen[[2]int{0, 0}] == 2 {
			break // full coverage and the cursor wrapped back around
		}
		if steps > 100 {
			t.Fatal("cursor failed to cover the jukebox")
		}
	}
	for k, c := range seen {
		if c > 2 {
			t.Errorf("position %v patrolled %d times in two passes", k, c)
		}
	}
}

func TestScrubberSkip(t *testing.T) {
	s := NewScrubber(3, 4, 4)
	for i := 0; i < 10; i++ {
		tape, _, _, ok := s.Next(func(t int) bool { return t == 1 })
		if !ok {
			t.Fatal("Next gave up with two tapes allowed")
		}
		if tape == 1 {
			t.Fatal("patrolled a skipped tape")
		}
	}
	if _, _, _, ok := s.Next(func(int) bool { return true }); ok {
		t.Error("Next returned a region with every tape skipped")
	}
}
