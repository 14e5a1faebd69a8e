package tapemodel

// Positioner abstracts the timing behaviour of a tape drive inside a
// robotic library. Profile implements it for single-pass (helical-scan)
// technologies -- the paper's setting -- and Serpentine implements it for
// multi-track linear technologies (Travan, DLT, IBM 3590), which the paper
// explicitly flags as needing modified algorithms. All offsets and
// distances are megabytes, all times seconds.
type Positioner interface {
	// Locate returns the time to reposition the head from byte offset
	// `from` MB to offset `to` MB and the direction of the resulting
	// motion (which the read model may care about).
	Locate(from, to float64) (seconds float64, dir Direction)
	// Read returns the time to transfer k megabytes after a locate in the
	// given direction.
	Read(k float64, dir Direction) float64
	// Rewind returns the time to return the head to the unload position
	// from byte offset `from` MB (drives must rewind before ejecting).
	Rewind(from float64) float64
	// SwitchTime returns the mechanical eject + robot + load time.
	SwitchTime() float64
	// FullSwitch returns Rewind(from) + SwitchTime().
	FullSwitch(from float64) float64
	// InitialLoad returns the cost of loading a tape into an empty drive
	// (robotic motion + load; nothing to rewind or eject).
	InitialLoad() float64
	// StreamingRateMBps returns the sustained transfer rate.
	StreamingRateMBps() float64
}

// InitialLoad returns the cost of loading a tape into an empty drive.
func (p *Profile) InitialLoad() float64 { return p.RobotTime + p.LoadTime }

var _ Positioner = (*Profile)(nil)

// Serpentine models a multi-track linear ("serpentine") tape drive. The
// tape is divided into Tracks tracks of TrackMB each; logical offsets fill
// track 0 in the physical forward direction, track 1 in reverse, and so on.
// Positioning consists of a high-speed longitudinal seek to the target's
// physical position along the tape plus a per-track head step, so -- unlike
// the helical-scan model -- blocks that are logically distant can be
// physically adjacent. The constants below are synthetic but sized like a
// DLT-class drive; the type exists so the paper's caveat that its
// algorithms "would need to be modified for serpentine tapes" can be
// studied, not to reproduce any particular drive.
type Serpentine struct {
	Name    string
	Tracks  int
	TrackMB float64

	SeekStartup float64 // fixed cost of any locate
	SeekRateMB  float64 // longitudinal repositioning speed, MB of track length per second
	TrackStep   float64 // per-track head-step time

	ReadRate    Segment // transfer time for k MB
	BOTOverhead float64 // extra cost of returning to the load point

	EjectTime float64
	RobotTime float64
	LoadTime  float64
}

// DLT7000Class returns a synthetic serpentine profile with DLT7000-like
// characteristics scaled to the study's 7 GB tapes: 32 tracks of 224 MB,
// 5 MB/s streaming, fast longitudinal seeks.
func DLT7000Class() *Serpentine {
	return &Serpentine{
		Name:        "synthetic DLT7000-class serpentine drive",
		Tracks:      32,
		TrackMB:     224,
		SeekStartup: 2.0,
		SeekRateMB:  40, // about 6 s to cross a full track
		TrackStep:   1.5,
		ReadRate:    Segment{Startup: 0.2, PerMB: 0.2},
		BOTOverhead: 8,
		EjectTime:   15,
		RobotTime:   20,
		LoadTime:    40,
	}
}

// geometry returns the track index and physical longitudinal position of a
// byte offset. Odd tracks run backwards, so consecutive tracks meet at the
// turnaround points.
func (s *Serpentine) geometry(off float64) (track int, lengthwise float64) {
	track = int(off / s.TrackMB)
	if track >= s.Tracks {
		track = s.Tracks - 1
	}
	u := off - float64(track)*s.TrackMB
	if track%2 == 1 {
		u = s.TrackMB - u
	}
	return track, u
}

// Locate seeks longitudinally to the target's physical position and steps
// the head across the intervening tracks. The direction reported is the
// logical direction of motion.
func (s *Serpentine) Locate(from, to float64) (float64, Direction) {
	if from == to {
		return 0, Forward
	}
	ft, fu := s.geometry(from)
	tt, tu := s.geometry(to)
	longitudinal := fu - tu
	if longitudinal < 0 {
		longitudinal = -longitudinal
	}
	steps := ft - tt
	if steps < 0 {
		steps = -steps
	}
	sec := s.SeekStartup + longitudinal/s.SeekRateMB + float64(steps)*s.TrackStep
	if to == 0 {
		sec += s.BOTOverhead
	}
	if to > from {
		return sec, Forward
	}
	return sec, Reverse
}

// Read transfers k megabytes; serpentine drives stream at the same rate in
// either logical direction.
func (s *Serpentine) Read(k float64, _ Direction) float64 {
	if k <= 0 {
		return 0
	}
	return s.ReadRate.Time(k)
}

// Rewind returns the head to the load point.
func (s *Serpentine) Rewind(from float64) float64 {
	if from <= 0 {
		return 0
	}
	sec, _ := s.Locate(from, 0)
	return sec
}

// SwitchTime returns eject + robot + load.
func (s *Serpentine) SwitchTime() float64 { return s.EjectTime + s.RobotTime + s.LoadTime }

// FullSwitch returns the complete tape replacement cost.
func (s *Serpentine) FullSwitch(from float64) float64 { return s.Rewind(from) + s.SwitchTime() }

// InitialLoad returns the empty-drive load cost.
func (s *Serpentine) InitialLoad() float64 { return s.RobotTime + s.LoadTime }

// StreamingRateMBps returns the sustained transfer rate.
func (s *Serpentine) StreamingRateMBps() float64 {
	if s.ReadRate.PerMB == 0 {
		return 0
	}
	return 1 / s.ReadRate.PerMB
}

var _ Positioner = (*Serpentine)(nil)

// PositionerByName resolves any registered drive model: the helical
// profiles of ProfileByName plus "dlt7000" and "lto9" for the synthetic
// serpentine drives. It returns nil for unknown names.
func PositionerByName(name string) Positioner {
	if p := ProfileByName(name); p != nil {
		return p
	}
	switch name {
	case "dlt7000", "serpentine":
		return DLT7000Class()
	case "lto9", "LTO-9":
		return LTO9Class()
	}
	return nil
}
