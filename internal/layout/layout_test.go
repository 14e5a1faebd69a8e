package layout

import (
	"testing"
	"testing/quick"
)

// paperConfig mirrors the jukebox of the study: 10 tapes of 7 GB holding
// 16 MB blocks, i.e. 448 blocks per tape.
func paperConfig() Config {
	return Config{Tapes: 10, TapeCapBlocks: 448}
}

func mustBuild(t *testing.T, cfg Config) *Layout {
	t.Helper()
	l, err := Build(cfg)
	if err != nil {
		t.Fatalf("Build(%+v): %v", cfg, err)
	}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate(%+v): %v", cfg, err)
	}
	return l
}

func TestNoReplicationFillsCapacity(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	l := mustBuild(t, cfg)
	if got, want := l.NumBlocks(), 4480; got != want {
		t.Errorf("NumBlocks = %d, want %d", got, want)
	}
	if got, want := l.NumHot(), 448; got != want {
		t.Errorf("NumHot = %d, want %d", got, want)
	}
}

func TestFullReplicationShrinksData(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Replicas = 9
	cfg.Kind = Vertical
	cfg.StartPos = 1
	l := mustBuild(t, cfg)
	// E = 1.9, so roughly 4480/1.9 = 2357 logical blocks fit.
	if l.NumBlocks() > 2357 || l.NumBlocks() < 2300 {
		t.Errorf("NumBlocks = %d, want about 2357", l.NumBlocks())
	}
	// Every hot block must have a copy on every tape (full replication in a
	// 10-tape jukebox).
	for b := 0; b < l.NumHot(); b++ {
		if got := len(l.Replicas(BlockID(b))); got != 10 {
			t.Fatalf("hot block %d has %d copies, want 10", b, got)
		}
	}
	// Cold blocks have exactly one copy.
	for b := l.NumHot(); b < l.NumBlocks(); b++ {
		if got := len(l.Replicas(BlockID(b))); got != 1 {
			t.Fatalf("cold block %d has %d copies, want 1", b, got)
		}
	}
}

func TestVerticalPutsOriginalsOnTapeZero(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Replicas = 3
	cfg.Kind = Vertical
	l := mustBuild(t, cfg)
	for b := 0; b < l.NumHot(); b++ {
		cs := l.Replicas(BlockID(b))
		if cs[0].Tape != 0 {
			t.Fatalf("hot block %d original on tape %d, want 0", b, cs[0].Tape)
		}
		for _, c := range cs[1:] {
			if c.Tape == 0 {
				t.Fatalf("hot block %d replica on the hot tape", b)
			}
		}
	}
}

func TestHorizontalSpreadsOriginals(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Kind = Horizontal
	l := mustBuild(t, cfg)
	count := make([]int, cfg.Tapes)
	for b := 0; b < l.NumHot(); b++ {
		count[l.Replicas(BlockID(b))[0].Tape]++
	}
	for tape, c := range count {
		if c == 0 {
			t.Errorf("tape %d holds no hot originals in a horizontal layout", tape)
		}
	}
}

func TestStartPositionPlacement(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Kind = Horizontal

	cfg.StartPos = 0
	l0 := mustBuild(t, cfg)
	// With SP=0 some hot block must sit at position 0 of some tape.
	found := false
	for tape := 0; tape < cfg.Tapes; tape++ {
		if b, ok := l0.BlockAt(tape, 0); ok && l0.IsHot(b) {
			found = true
		}
	}
	if !found {
		t.Error("SP=0: no hot block at the beginning of any tape")
	}

	cfg.StartPos = 1
	l1 := mustBuild(t, cfg)
	// With SP=1 the last position of each tape holding hot data must be hot.
	found = false
	for tape := 0; tape < cfg.Tapes; tape++ {
		if b, ok := l1.BlockAt(tape, cfg.TapeCapBlocks-1); ok && l1.IsHot(b) {
			found = true
		}
	}
	if !found {
		t.Error("SP=1: no hot block at the end of any tape")
	}

	// Mean hot position should increase with SP.
	meanHotPos := func(l *Layout) float64 {
		sum, n := 0.0, 0
		for b := 0; b < l.NumHot(); b++ {
			for _, c := range l.Replicas(BlockID(b)) {
				sum += float64(c.Pos)
				n++
			}
		}
		return sum / float64(n)
	}
	if meanHotPos(l0) >= meanHotPos(l1) {
		t.Errorf("mean hot position: SP=0 %.1f should be below SP=1 %.1f",
			meanHotPos(l0), meanHotPos(l1))
	}
}

func TestReplicaOn(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Replicas = 9
	cfg.Kind = Vertical
	l := mustBuild(t, cfg)
	for tape := 0; tape < cfg.Tapes; tape++ {
		if _, ok := l.ReplicaOn(0, tape); !ok {
			t.Errorf("fully replicated block 0 missing from tape %d", tape)
		}
	}
	cold := BlockID(l.NumHot())
	n := 0
	for tape := 0; tape < cfg.Tapes; tape++ {
		if _, ok := l.ReplicaOn(cold, tape); ok {
			n++
		}
	}
	if n != 1 {
		t.Errorf("cold block on %d tapes, want exactly 1", n)
	}
}

func TestErrors(t *testing.T) {
	bad := []Config{
		{Tapes: 0, TapeCapBlocks: 10},
		{Tapes: 2, TapeCapBlocks: 0},
		{Tapes: 2, TapeCapBlocks: 10, HotPercent: -1},
		{Tapes: 2, TapeCapBlocks: 10, HotPercent: 101},
		{Tapes: 2, TapeCapBlocks: 10, Replicas: 2},
		{Tapes: 2, TapeCapBlocks: 10, Replicas: -1},
		{Tapes: 2, TapeCapBlocks: 10, StartPos: 1.5},
		{Tapes: 2, TapeCapBlocks: 10, StartPos: -0.5},
		// Vertical with more hot data than one tape holds.
		{Tapes: 2, TapeCapBlocks: 10, HotPercent: 90, Kind: Vertical},
		// A placement that is neither horizontal nor vertical.
		{Tapes: 2, TapeCapBlocks: 10, Kind: "diagonal"},
	}
	for _, cfg := range bad {
		if _, err := Build(cfg); err == nil {
			t.Errorf("Build(%+v) succeeded, want error", cfg)
		}
		// Every one of these fails before a block is placed, so Counts
		// reports it too.
		if _, _, err := Counts(cfg); err == nil {
			t.Errorf("Counts(%+v) succeeded, want error", cfg)
		}
	}
}

func TestAllHotAllCold(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 0
	l := mustBuild(t, cfg)
	if l.NumHot() != 0 || l.NumCold() != 4480 {
		t.Errorf("PH=0: hot=%d cold=%d", l.NumHot(), l.NumCold())
	}
	cfg.HotPercent = 100
	cfg.Kind = Horizontal
	l = mustBuild(t, cfg)
	if l.NumHot() != 4480 || l.NumCold() != 0 {
		t.Errorf("PH=100: hot=%d cold=%d", l.NumHot(), l.NumCold())
	}
}

func TestPartialFill(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.DataBlocks = 1000 // well under the 4480 capacity
	l := mustBuild(t, cfg)
	if l.NumBlocks() != 1000 {
		t.Errorf("NumBlocks = %d, want 1000", l.NumBlocks())
	}
	if l.NumHot() != 100 {
		t.Errorf("NumHot = %d, want 100", l.NumHot())
	}
	// Overflow detection: too much data for the capacity with replicas.
	cfg.DataBlocks = 4400
	cfg.Replicas = 9
	cfg.Kind = Vertical
	if _, err := Build(cfg); err == nil {
		t.Error("oversubscribed partial fill accepted")
	}
}

func TestPackAfterData(t *testing.T) {
	cfg := paperConfig()
	cfg.HotPercent = 10
	cfg.Replicas = 9
	cfg.Kind = Vertical
	cfg.DataBlocks = 1340 // 30% full
	cfg.PackAfterData = true
	l := mustBuild(t, cfg)

	// On every replica tape, the hot region must sit immediately after the
	// cold data: scanning from position 0, occupied positions form one
	// contiguous run (no blank gap before the replicas).
	for tape := 0; tape < cfg.Tapes; tape++ {
		lastOccupied, firstFree := -1, -1
		for p := 0; p < cfg.TapeCapBlocks; p++ {
			if _, ok := l.BlockAt(tape, p); ok {
				if firstFree >= 0 {
					t.Fatalf("tape %d: occupied position %d after gap at %d", tape, p, firstFree)
				}
				lastOccupied = p
			} else if firstFree < 0 {
				firstFree = p
			}
		}
		if lastOccupied < 0 {
			t.Fatalf("tape %d empty", tape)
		}
	}

	// The mean locate target is far lower than with SP=1 placement on the
	// same data (the point of packing).
	cfg.PackAfterData = false
	cfg.StartPos = 1
	atEnd := mustBuild(t, cfg)
	meanHotPos := func(l *Layout) float64 {
		sum, n := 0.0, 0
		for b := 0; b < l.NumHot(); b++ {
			for _, c := range l.Replicas(BlockID(b)) {
				sum += float64(c.Pos)
				n++
			}
		}
		return sum / float64(n)
	}
	if meanHotPos(l) >= meanHotPos(atEnd) {
		t.Errorf("packed hot positions (%.0f) should sit before SP-1 positions (%.0f)",
			meanHotPos(l), meanHotPos(atEnd))
	}
}

// The kinds are their public spellings: tapejuke.Placement aliases Kind,
// so saved configurations and the CLI use these strings.
func TestKindString(t *testing.T) {
	if Horizontal != "horizontal" || Vertical != "vertical" {
		t.Error("Kind spelling changed")
	}
}

// Property: for arbitrary valid configurations the layout passes Validate
// and the physical footprint never exceeds capacity.
func TestBuildPropertyValid(t *testing.T) {
	f := func(tapes, capBlocks, ph, nr uint8, kindBit bool, spRaw uint8) bool {
		cfg := Config{
			Tapes:         int(tapes)%12 + 1,
			TapeCapBlocks: int(capBlocks)%80 + 20,
			HotPercent:    float64(ph % 101),
			StartPos:      float64(spRaw%101) / 100,
		}
		cfg.Replicas = int(nr) % cfg.Tapes // in [0, Tapes-1]
		if kindBit {
			cfg.Kind = Vertical
		}
		l, err := Build(cfg)
		if err != nil {
			// Overflow rejections are legal (vertical hot tape overflow, or
			// horizontal per-tape hot regions exceeding capacity at extreme
			// PH x NR); what matters is that successful builds validate.
			return true
		}
		if l.Validate() != nil {
			return false
		}
		if blocks, hot, err := Counts(cfg); err != nil || blocks != l.NumBlocks() || hot != l.NumHot() {
			return false
		}
		// Footprint accounting.
		phys := 0
		for b := 0; b < l.NumBlocks(); b++ {
			phys += len(l.Replicas(BlockID(b)))
		}
		return phys <= cfg.Tapes*cfg.TapeCapBlocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Every configuration in the paper's experimental grid must build and
// validate: PH in {5,10,20}, NR 0..9, SP in {0,0.25,0.5,0.75,1}, both kinds.
func TestPaperGridBuilds(t *testing.T) {
	for _, ph := range []float64{5, 10, 20} {
		for nr := 0; nr <= 9; nr++ {
			for _, sp := range []float64{0, 0.25, 0.5, 0.75, 1} {
				for _, kind := range []Kind{Horizontal, Vertical} {
					if kind == Vertical && ph > 10 {
						// The paper does not study vertical layouts with
						// more hot data than one tape holds.
						continue
					}
					cfg := paperConfig()
					cfg.HotPercent = ph
					cfg.Replicas = nr
					cfg.StartPos = sp
					cfg.Kind = kind
					l, err := Build(cfg)
					if err != nil {
						t.Fatalf("Build(PH=%v NR=%d SP=%v %v): %v", ph, nr, sp, kind, err)
					}
					if err := l.Validate(); err != nil {
						t.Fatalf("Validate(PH=%v NR=%d SP=%v %v): %v", ph, nr, sp, kind, err)
					}
				}
			}
		}
	}
}

// Property: hot block IDs are exactly 0..NumHot-1.
func TestHotPrefixProperty(t *testing.T) {
	f := func(ph uint8) bool {
		cfg := paperConfig()
		cfg.HotPercent = float64(ph % 101)
		l, err := Build(cfg)
		if err != nil {
			return false
		}
		for b := 0; b < l.NumBlocks(); b++ {
			if l.IsHot(BlockID(b)) != (b < l.NumHot()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
