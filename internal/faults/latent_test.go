package faults

import (
	"testing"
)

// countDead enumerates the dead positions visible through CopyDead over an
// oversized position range, so placements leaking past the tape end would
// be seen.
func countDead(inj *Injector, tapes, scanTo int) (inside, outside int) {
	for t := 0; t < tapes; t++ {
		for p := 0; p < scanTo; p++ {
			if inj.CopyDead(t, p) {
				if p < inj.tapeCap {
					inside++
				} else {
					outside++
				}
			}
		}
	}
	return
}

// TestBadBlockRangeClipsAtTapeEnd: a range longer than the remaining tape
// is clipped, never wrapped or leaked past the end.
func TestBadBlockRangeClipsAtTapeEnd(t *testing.T) {
	const tapes, capBlocks = 6, 8
	// Ranges up to twice the tape length guarantee most draws overrun.
	inj, err := New(Config{BadBlocksPerTape: 3, BadBlockRangeLen: 2 * capBlocks, Seed: 5},
		tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	inside, outside := countDead(inj, tapes, 4*capBlocks)
	if outside != 0 {
		t.Errorf("%d bad positions past the tape end", outside)
	}
	if inside == 0 {
		t.Fatal("no bad blocks placed at all")
	}
	if inside != inj.InjectedBadBlocks() {
		t.Errorf("CopyDead shows %d positions, InjectedBadBlocks = %d", inside, inj.InjectedBadBlocks())
	}
}

// TestBadBlockOverlapMerges: overlapping ranges merge rather than double
// count -- the injected tally equals the number of distinct dead positions.
func TestBadBlockOverlapMerges(t *testing.T) {
	// A tiny tape with many long ranges forces heavy overlap.
	const tapes, capBlocks = 4, 4
	inj, err := New(Config{BadBlocksPerTape: 6, BadBlockRangeLen: capBlocks, Seed: 11},
		tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	inside, _ := countDead(inj, tapes, capBlocks)
	if inside != inj.InjectedBadBlocks() {
		t.Errorf("distinct dead positions %d != InjectedBadBlocks %d (overlap double-counted)",
			inside, inj.InjectedBadBlocks())
	}
	if inside > tapes*capBlocks {
		t.Errorf("%d dead positions on a %d-position jukebox", inside, tapes*capBlocks)
	}
}

// TestBadBlockRangeLenExtremes: a range bound of 1 places only single
// blocks, and a bound of the whole tape can kill a tape end to end but
// never more.
func TestBadBlockRangeLenExtremes(t *testing.T) {
	const tapes, capBlocks = 5, 16
	one, err := New(Config{BadBlocksPerTape: 2, BadBlockRangeLen: 1, Seed: 7},
		tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	// With length-1 ranges, dead positions are exactly the distinct starts:
	// no run longer than its draw count can appear. The observable bound:
	// at most poisson-total positions, all within the tape.
	inside, outside := countDead(one, tapes, 2*capBlocks)
	if outside != 0 {
		t.Errorf("length-1 ranges leaked %d positions past the tape end", outside)
	}
	if inside != one.InjectedBadBlocks() {
		t.Errorf("distinct dead %d != injected %d", inside, one.InjectedBadBlocks())
	}

	whole, err := New(Config{BadBlocksPerTape: 8, BadBlockRangeLen: capBlocks, Seed: 7},
		tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	inside, outside = countDead(whole, tapes, 2*capBlocks)
	if outside != 0 {
		t.Errorf("whole-tape ranges leaked %d positions past the tape end", outside)
	}
	if inside > tapes*capBlocks {
		t.Errorf("%d dead positions exceed jukebox capacity %d", inside, tapes*capBlocks)
	}
	if inside == 0 {
		t.Error("whole-tape ranges placed nothing")
	}
}

// TestBadBlockSeedDeterminism: the same seed reproduces the exact bad set;
// a different seed (overwhelmingly) does not.
func TestBadBlockSeedDeterminism(t *testing.T) {
	const tapes, capBlocks = 8, 32
	cfg := Config{BadBlocksPerTape: 2, BadBlockRangeLen: 4, LatentErrorsPerTape: 2, Seed: 21}
	a, err := New(cfg, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(cfg, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for tp := 0; tp < tapes; tp++ {
		for p := 0; p < capBlocks; p++ {
			if a.CopyDead(tp, p) != b.CopyDead(tp, p) {
				t.Fatalf("seed %d bad sets diverge at (%d,%d)", cfg.Seed, tp, p)
			}
		}
	}
	la, lb := a.Latents(), b.Latents()
	if len(la) != len(lb) {
		t.Fatalf("latent counts diverge: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("latent %d diverges: %+v vs %+v", i, la[i], lb[i])
		}
	}

	cfg.Seed = 22
	c, err := New(cfg, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for tp := 0; tp < tapes && same; tp++ {
		for p := 0; p < capBlocks; p++ {
			if a.CopyDead(tp, p) != c.CopyDead(tp, p) {
				same = false
				break
			}
		}
	}
	if same && len(a.Latents()) == len(c.Latents()) && a.InjectedBadBlocks() == c.InjectedBadBlocks() {
		t.Error("different seeds produced identical fault universes")
	}
}

// TestLatentPlacement: latent positions are disjoint from bad-at-birth
// positions, stay within the tape, agree between the slice and lookup
// views, and hold no duplicates.
func TestLatentPlacement(t *testing.T) {
	const tapes, capBlocks = 8, 16
	inj, err := New(Config{BadBlocksPerTape: 2, BadBlockRangeLen: 6,
		LatentErrorsPerTape: 3, Seed: 3}, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	lats := inj.Latents()
	if len(lats) == 0 {
		t.Fatal("no latent errors placed")
	}
	if got := inj.InjectedLatentErrors(); got != len(lats) {
		t.Errorf("InjectedLatentErrors = %d, Latents has %d", got, len(lats))
	}
	seen := make(map[[2]int]bool)
	for _, l := range lats {
		if l.Pos < 0 || l.Pos >= capBlocks || l.Tape < 0 || l.Tape >= tapes {
			t.Errorf("latent %+v outside the jukebox geometry", l)
		}
		if inj.CopyDead(l.Tape, l.Pos) {
			t.Errorf("latent at (%d,%d) overlaps a bad-at-birth position", l.Tape, l.Pos)
		}
		if seen[[2]int{l.Tape, l.Pos}] {
			t.Errorf("duplicate latent position (%d,%d)", l.Tape, l.Pos)
		}
		seen[[2]int{l.Tape, l.Pos}] = true
		onset, ok := inj.LatentOnset(l.Tape, l.Pos)
		if !ok || onset != l.Onset {
			t.Errorf("LatentOnset(%d,%d) = %v,%v; slice has %v", l.Tape, l.Pos, onset, ok, l.Onset)
		}
		if l.Onset < 0 {
			t.Errorf("negative onset %v", l.Onset)
		}
	}
}

// TestLatentActiveLifecycle: inactive before onset, active after, and gone
// once detected (MarkDead).
func TestLatentActiveLifecycle(t *testing.T) {
	inj, err := New(Config{LatentErrorsPerTape: 3, LatentMeanOnsetSec: 1000, Seed: 9},
		4, 1, 16)
	if err != nil {
		t.Fatal(err)
	}
	lats := inj.Latents()
	if len(lats) == 0 {
		t.Fatal("no latent errors placed")
	}
	l := lats[0]
	if inj.LatentActive(l.Tape, l.Pos, l.Onset/2) {
		t.Error("latent active before its onset")
	}
	if !inj.LatentActive(l.Tape, l.Pos, l.Onset) {
		t.Error("latent inactive at its onset")
	}
	inj.MarkDead(l.Tape, l.Pos)
	if inj.LatentActive(l.Tape, l.Pos, l.Onset+1) {
		t.Error("latent still active after detection marked it dead")
	}
	if !inj.CopyDead(l.Tape, l.Pos) {
		t.Error("detected latent not dead")
	}
	// A position with no latent is never active.
	if inj.LatentActive(3, 15, 1e12) && func() bool { _, ok := inj.LatentOnset(3, 15); return !ok }() {
		t.Error("latent-free position reported active")
	}
}

// TestLatentDrawsAfterExistingStreams pins the compatibility guarantee:
// enabling latent errors must not shift any pre-existing draw, so the tape
// failure times and bad-block placement of a latent-enabled injector match
// the latent-free one bit for bit.
func TestLatentDrawsAfterExistingStreams(t *testing.T) {
	const tapes, capBlocks = 8, 32
	base := Config{BadBlocksPerTape: 2, BadBlockRangeLen: 4, TapeMTBFSec: 1e6,
		DriveMTBFSec: 5e5, Seed: 17}
	plain, err := New(base, tapes, 2, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	withL := base
	withL.LatentErrorsPerTape = 2
	lat, err := New(withL, tapes, 2, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for tp := 0; tp < tapes; tp++ {
		if plain.TapeFailTime(tp) != lat.TapeFailTime(tp) {
			t.Errorf("tape %d failure time shifted: %v vs %v", tp, plain.TapeFailTime(tp), lat.TapeFailTime(tp))
		}
		for p := 0; p < capBlocks; p++ {
			if plain.CopyDead(tp, p) != lat.CopyDead(tp, p) {
				t.Errorf("bad set shifted at (%d,%d)", tp, p)
			}
		}
	}
	for d := 0; d < 2; d++ {
		if plain.DriveFailAt(d) != lat.DriveFailAt(d) {
			t.Errorf("drive %d failure time shifted: %v vs %v", d, plain.DriveFailAt(d), lat.DriveFailAt(d))
		}
	}
	if lat.InjectedLatentErrors() == 0 {
		t.Error("latent-enabled injector placed no latents")
	}
}

// TestLatentLookupsDrawNothing pins the scrub-inertness foundation: the
// lookups the engine's scrub and repair paths make -- LatentActive,
// TapeFailed, CopyDead, LatentOnset -- consume no injector randomness, so
// interleaving any number of them leaves the per-attempt draw streams
// bit-identical.
func TestLatentLookupsDrawNothing(t *testing.T) {
	const tapes, capBlocks = 6, 16
	cfg := Config{ReadTransientProb: 0.3, SwitchFailProb: 0.2,
		BadBlocksPerTape: 1, LatentErrorsPerTape: 2, TapeMTBFSec: 1e6, Seed: 29}
	clean, err := New(cfg, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := New(cfg, tapes, 1, capBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		// Hammer the lookup surface between every draw on one injector.
		for tp := 0; tp < tapes; tp++ {
			for p := 0; p < capBlocks; p++ {
				noisy.LatentActive(tp, p, float64(i*1000))
				noisy.CopyDead(tp, p)
				noisy.LatentOnset(tp, p)
			}
			noisy.TapeFailed(tp, float64(i*1000))
		}
		if a, b := clean.ReadAttemptFails(), noisy.ReadAttemptFails(); a != b {
			t.Fatalf("draw %d: read streams diverged after lookups", i)
		}
		if a, b := clean.SwitchAttemptFails(), noisy.SwitchAttemptFails(); a != b {
			t.Fatalf("draw %d: switch streams diverged after lookups", i)
		}
	}
}
