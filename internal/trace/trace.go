// Package trace records simulator event streams to a line-oriented JSON
// format and computes operational summaries from them. A trace answers the
// questions an operator would ask of a real jukebox's activity log: how
// busy was the drive, how often did tapes switch, which tapes were hot, how
// long were the sweeps.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tapejuke/internal/sim"
	"tapejuke/internal/stats"
)

// Record is the serialized form of one simulator event.
type Record struct {
	Kind    string  `json:"kind"`
	Time    float64 `json:"t"`
	Tape    int     `json:"tape"`
	Pos     int     `json:"pos"`
	Seconds float64 `json:"sec"`
	Request int64   `json:"req,omitempty"`
}

// Recorder is a sim.Observer that writes one JSON line per event. It
// buffers internally; call Flush before reading the destination.
type Recorder struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
	n   int64
}

// NewRecorder wraps the writer. Events are appended as JSON lines.
func NewRecorder(w io.Writer) *Recorder {
	bw := bufio.NewWriter(w)
	return &Recorder{w: bw, enc: json.NewEncoder(bw)}
}

// Observe serializes one event. The first encoding error sticks and
// subsequent events are dropped; Flush returns it after the run.
func (r *Recorder) Observe(ev sim.Event) {
	if r.err != nil {
		return
	}
	r.n++
	r.err = r.enc.Encode(Record{
		Kind:    ev.Kind.String(),
		Time:    ev.Time,
		Tape:    ev.Tape,
		Pos:     ev.Pos,
		Seconds: ev.Seconds,
		Request: ev.Request,
	})
}

// Flush drains the internal buffer. It returns the first encoding error
// instead when one stuck.
func (r *Recorder) Flush() error {
	if r.err != nil {
		return r.err
	}
	return r.w.Flush()
}

// Count returns the number of events recorded.
func (r *Recorder) Count() int64 { return r.n }

// Read parses a recorded trace back into records.
func Read(rd io.Reader) ([]Record, error) {
	var out []Record
	dec := json.NewDecoder(rd)
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return nil, fmt.Errorf("trace: record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}

// Summary aggregates a trace into operator-facing statistics.
type Summary struct {
	Events     int64
	Reads      int64
	Switches   int64
	Completes  int64
	Flushes    int64 // delta blocks written (one write-flush record each)
	IdleSpells int64
	Expires    int64 // deadline expiries (overload extension)
	Sheds      int64 // requests shed by admission overflow
	Rejects    int64 // arrivals rejected by admission overflow

	RepairReads  int64 // repair-job source reads (repair extension)
	RepairWrites int64 // repair-job copy writes
	Reclaims     int64 // excess replicas reclaimed

	ScrubReads  int64 // scrub verification reads (health extension)
	LatentFinds int64 // latent errors detected (any path)
	Evacuations int64 // copies dropped from suspect tapes
	DriveFences int64 // drives fenced for maintenance

	Span            float64 // last event time
	ReadSeconds     float64 // total time inside read operations (locate+transfer)
	SwitchSeconds   float64
	RepairSeconds   float64 // time inside repair reads and writes
	ScrubSeconds    float64 // time inside scrub verification reads
	IdleSeconds     float64
	MeanSweepLen    float64 // reads per tape visit
	MeanSwitchGap   float64 // seconds between consecutive switches
	ReadsPerTape    map[int]int64
	BusiestTape     int
	BusiestTapeFrac float64

	// RepairedCopies counts repair jobs whose copy write landed, and
	// MeanTimeToRepairSec averages the gap between each job's source read
	// and its copy write (jobs still open at the end of the trace are not
	// counted). MeanTimeToDetectSec averages the detection latency the
	// latent-found records carry: how long each latent error sat on tape
	// before a read -- user, repair, or scrub -- touched it.
	RepairedCopies      int64
	MeanTimeToRepairSec float64
	MeanTimeToDetectSec float64
}

// Summarize computes a Summary from records in time order.
func Summarize(recs []Record) *Summary {
	s := &Summary{ReadsPerTape: make(map[int]int64), BusiestTape: -1}
	var gap stats.Accumulator
	lastSwitch := -1.0
	readsSinceSwitch := int64(0)
	var sweeps stats.Accumulator
	var mttr, mttd stats.Accumulator
	readAt := make(map[int64]float64) // repair job ID -> source-read time
	for _, r := range recs {
		s.Events++
		if r.Time > s.Span {
			s.Span = r.Time
		}
		switch r.Kind {
		case "read":
			s.Reads++
			s.ReadSeconds += r.Seconds
			readsSinceSwitch++
			if r.Tape >= 0 {
				s.ReadsPerTape[r.Tape]++
			}
		case "switch":
			s.Switches++
			s.SwitchSeconds += r.Seconds
			if lastSwitch >= 0 {
				gap.Add(r.Time - lastSwitch)
			}
			lastSwitch = r.Time
			if readsSinceSwitch > 0 {
				sweeps.Add(float64(readsSinceSwitch))
			}
			readsSinceSwitch = 0
		case "complete":
			s.Completes++
		case "write-flush":
			s.Flushes++
		case "idle":
			s.IdleSpells++
			s.IdleSeconds += r.Seconds
		case "expire":
			s.Expires++
		case "shed":
			s.Sheds++
		case "reject":
			s.Rejects++
		case "repair-read":
			s.RepairReads++
			s.RepairSeconds += r.Seconds
			if _, open := readAt[r.Request]; !open {
				readAt[r.Request] = r.Time
			}
		case "repair-write":
			s.RepairWrites++
			s.RepairSeconds += r.Seconds
			s.RepairedCopies++
			if t0, ok := readAt[r.Request]; ok {
				mttr.Add(r.Time - t0)
				delete(readAt, r.Request)
			}
		case "reclaim":
			s.Reclaims++
		case "scrub-read":
			s.ScrubReads++
			s.ScrubSeconds += r.Seconds
		case "latent-found":
			s.LatentFinds++
			mttd.Add(r.Seconds)
		case "evacuate":
			s.Evacuations++
		case "drive-fence":
			s.DriveFences++
		}
	}
	if readsSinceSwitch > 0 {
		sweeps.Add(float64(readsSinceSwitch))
	}
	s.MeanSweepLen = sweeps.Mean()
	s.MeanSwitchGap = gap.Mean()
	s.MeanTimeToRepairSec = mttr.Mean()
	s.MeanTimeToDetectSec = mttd.Mean()
	var best int64 = -1
	// Deterministic tie-break: lowest tape index wins.
	tapes := make([]int, 0, len(s.ReadsPerTape))
	for t := range s.ReadsPerTape {
		tapes = append(tapes, t)
	}
	sort.Ints(tapes)
	for _, t := range tapes {
		if s.ReadsPerTape[t] > best {
			best = s.ReadsPerTape[t]
			s.BusiestTape = t
		}
	}
	if s.Reads > 0 && best > 0 {
		s.BusiestTapeFrac = float64(best) / float64(s.Reads)
	}
	return s
}

// Format renders the summary as aligned text.
func (s *Summary) Format(w io.Writer) {
	fmt.Fprintf(w, "events            %d over %.0f simulated seconds\n", s.Events, s.Span)
	fmt.Fprintf(w, "reads             %d (%.0f s in read+locate)\n", s.Reads, s.ReadSeconds)
	fmt.Fprintf(w, "tape switches     %d (%.0f s; mean gap %.0f s)\n", s.Switches, s.SwitchSeconds, s.MeanSwitchGap)
	fmt.Fprintf(w, "mean sweep        %.1f reads per tape visit\n", s.MeanSweepLen)
	fmt.Fprintf(w, "completions       %d\n", s.Completes)
	if s.Flushes > 0 {
		fmt.Fprintf(w, "write flushes     %d\n", s.Flushes)
	}
	if s.IdleSpells > 0 {
		fmt.Fprintf(w, "idle              %d spells, %.0f s\n", s.IdleSpells, s.IdleSeconds)
	}
	if s.Expires+s.Sheds+s.Rejects > 0 {
		fmt.Fprintf(w, "overload          %d expired, %d shed, %d rejected\n", s.Expires, s.Sheds, s.Rejects)
	}
	if s.RepairReads+s.RepairWrites+s.Reclaims > 0 {
		fmt.Fprintf(w, "repair            %d reads, %d writes, %d reclaims (%.0f s; %d copies repaired, MTTR %.0f s)\n",
			s.RepairReads, s.RepairWrites, s.Reclaims, s.RepairSeconds, s.RepairedCopies, s.MeanTimeToRepairSec)
	}
	if s.ScrubReads+s.LatentFinds+s.Evacuations+s.DriveFences > 0 {
		fmt.Fprintf(w, "health            %d scrub reads (%.0f s), %d latent found (MTTD %.0f s), %d evacuations, %d fences\n",
			s.ScrubReads, s.ScrubSeconds, s.LatentFinds, s.MeanTimeToDetectSec, s.Evacuations, s.DriveFences)
	}
	if s.BusiestTape >= 0 {
		fmt.Fprintf(w, "busiest tape      %d (%.0f%% of reads)\n", s.BusiestTape, 100*s.BusiestTapeFrac)
	}
}
