package tapemodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSerpentineGeometry(t *testing.T) {
	s := DLT7000Class()
	// Track 0 runs forward: offset 10 sits 10 MB down the tape.
	tr, u := s.geometry(10)
	if tr != 0 || u != 10 {
		t.Errorf("geometry(10) = track %d pos %v, want 0, 10", tr, u)
	}
	// Track 1 runs backward: offset TrackMB+10 sits TrackMB-10 down.
	tr, u = s.geometry(s.TrackMB + 10)
	if tr != 1 || math.Abs(u-(s.TrackMB-10)) > 1e-9 {
		t.Errorf("geometry = track %d pos %v, want 1, %v", tr, u, s.TrackMB-10)
	}
}

// The defining serpentine property: blocks that are logically far apart can
// be physically adjacent at a track turnaround, making the locate much
// cheaper than a same-distance move within one track.
func TestSerpentineTurnaroundCheapLocate(t *testing.T) {
	s := DLT7000Class()
	// End of track 0 to start of track 1 (logically adjacent AND physically
	// adjacent): distance TrackMB in logical terms would be mid-tape.
	nearTurn, _ := s.Locate(s.TrackMB-1, s.TrackMB+1) // 2 MB logical, ~0 longitudinal
	sameTrack, _ := s.Locate(0, s.TrackMB-1)          // full track longitudinally
	if nearTurn >= sameTrack {
		t.Errorf("turnaround locate %v should be far cheaper than full-track %v",
			nearTurn, sameTrack)
	}
	// Offsets TrackMB-1 and TrackMB+1 share the same longitudinal position
	// (1 MB from the turnaround), so the locate is startup + one track step.
	want := s.SeekStartup + s.TrackStep
	if math.Abs(nearTurn-want) > 1e-9 {
		t.Errorf("turnaround locate = %v, want %v", nearTurn, want)
	}
}

func TestSerpentineLocateSymmetryAndBOT(t *testing.T) {
	s := DLT7000Class()
	fwd, d1 := s.Locate(100, 500)
	rev, d2 := s.Locate(500, 100)
	if d1 != Forward || d2 != Reverse {
		t.Error("direction labels wrong")
	}
	if math.Abs(fwd-rev) > 1e-9 {
		t.Errorf("serpentine seeks should be symmetric: %v vs %v", fwd, rev)
	}
	withBOT, _ := s.Locate(500, 0)
	without, _ := s.Locate(500, 1)
	if withBOT <= without {
		t.Error("locating to the load point should cost the BOT overhead")
	}
	if sec, _ := s.Locate(42, 42); sec != 0 {
		t.Error("zero-distance locate should be free")
	}
}

func TestSerpentineInterface(t *testing.T) {
	s := DLT7000Class()
	if s.Read(10, Forward) != s.Read(10, Reverse) {
		t.Error("serpentine reads should not depend on direction")
	}
	if s.Read(0, Forward) != 0 {
		t.Error("empty read should be free")
	}
	if s.Rewind(0) != 0 {
		t.Error("rewind from the load point should be free")
	}
	if s.Rewind(1000) <= 0 {
		t.Error("rewind should cost time")
	}
	if s.SwitchTime() != 75 {
		t.Errorf("switch = %v, want 75", s.SwitchTime())
	}
	if s.FullSwitch(1000) != s.Rewind(1000)+75 {
		t.Error("FullSwitch mismatch")
	}
	if s.InitialLoad() != 60 {
		t.Errorf("InitialLoad = %v, want 60", s.InitialLoad())
	}
	if s.StreamingRateMBps() != 5 {
		t.Errorf("streaming = %v MB/s, want 5", s.StreamingRateMBps())
	}
}

func TestPositionerByName(t *testing.T) {
	if p, ok := PositionerByName("exb8505xl").(*Profile); !ok || p.Name != EXB8505XL().Name {
		t.Error("helical profile not resolved")
	}
	if p := PositionerByName("dlt7000"); p == nil {
		t.Error("dlt7000 not resolved")
	}
	if p := PositionerByName("serpentine"); p == nil {
		t.Error("serpentine alias not resolved")
	}
	if p := PositionerByName("bogus"); p != nil {
		t.Error("bogus name resolved")
	}
}

// Property: serpentine locate cost is bounded by a full-tape worst case and
// is never negative.
func TestSerpentineLocateBounds(t *testing.T) {
	s := DLT7000Class()
	capMB := float64(s.Tracks) * s.TrackMB
	worst := s.SeekStartup + s.TrackMB/s.SeekRateMB +
		float64(s.Tracks)*s.TrackStep + s.BOTOverhead
	f := func(a, b uint16) bool {
		from := float64(a) * capMB / 65536
		to := float64(b) * capMB / 65536
		sec, _ := s.Locate(from, to)
		return sec >= 0 && sec <= worst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
