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

// Summary aggregates a trace into operator-facing statistics. Its Tally
// counts records per kind as the simulator's own tally counts events, with
// every record post-warm-up (a trace carries no warm-up), so Post equals
// Count; a record of unknown kind counts in Events only. The other fields
// are what only the trace defines.
type Summary struct {
	sim.Tally

	Events          int64   // every record
	Span            float64 // last event time
	MeanSweepLen    float64 // reads per tape visit
	MeanSwitchGap   float64 // seconds between consecutive switches
	ReadsPerTape    map[int]int64
	BusiestTape     int
	BusiestTapeFrac float64

	// MeanReadToWriteSec averages the gap between each repair job's
	// source read and its copy write (jobs still open at the end of the
	// trace are not counted). MeanFoundLatencySec averages the detection
	// latency the latent-found records carry: how long each latent error
	// that was found sat on tape before a read -- user, repair, or scrub --
	// touched it.
	MeanReadToWriteSec  float64
	MeanFoundLatencySec float64
}

// Summarize computes a Summary from records in time order.
func Summarize(recs []Record) *Summary {
	s := &Summary{ReadsPerTape: make(map[int]int64), BusiestTape: -1}
	var gap stats.Accumulator
	lastSwitch := -1.0
	readsSinceSwitch := int64(0)
	var sweeps stats.Accumulator
	var readToWrite, found stats.Accumulator
	readAt := make(map[int64]float64) // repair job ID -> source-read time
	for _, r := range recs {
		s.Events++
		if r.Time > s.Span {
			s.Span = r.Time
		}
		k := sim.ParseEventKind(r.Kind)
		if k < 0 {
			continue
		}
		s.Add(sim.Event{Kind: k, Seconds: r.Seconds}, true)
		switch k {
		case sim.EventRead:
			readsSinceSwitch++
			if r.Tape >= 0 {
				s.ReadsPerTape[r.Tape]++
			}
		case sim.EventSwitch:
			if lastSwitch >= 0 {
				gap.Add(r.Time - lastSwitch)
			}
			lastSwitch = r.Time
			if readsSinceSwitch > 0 {
				sweeps.Add(float64(readsSinceSwitch))
			}
			readsSinceSwitch = 0
		case sim.EventRepairRead:
			if _, open := readAt[r.Request]; !open {
				readAt[r.Request] = r.Time
			}
		case sim.EventRepairWrite:
			if t0, ok := readAt[r.Request]; ok {
				readToWrite.Add(r.Time - t0)
				delete(readAt, r.Request)
			}
		case sim.EventLatentFound:
			found.Add(r.Seconds)
		}
	}
	if readsSinceSwitch > 0 {
		sweeps.Add(float64(readsSinceSwitch))
	}
	s.MeanSweepLen = sweeps.Mean()
	s.MeanSwitchGap = gap.Mean()
	s.MeanReadToWriteSec = readToWrite.Mean()
	s.MeanFoundLatencySec = found.Mean()
	var best int64
	for t, n := range s.ReadsPerTape {
		if n > best || n == best && t < s.BusiestTape { // ties go to the lowest tape
			best, s.BusiestTape = n, t
		}
	}
	if reads := s.Count[sim.EventRead]; reads > 0 && best > 0 {
		s.BusiestTapeFrac = float64(best) / float64(reads)
	}
	return s
}

// Format renders the summary as aligned text.
func (s *Summary) Format(w io.Writer) {
	n, sec := &s.Count, &s.Seconds
	fmt.Fprintf(w, "events            %d over %.0f simulated seconds\n", s.Events, s.Span)
	fmt.Fprintf(w, "reads             %d (%.0f s in read+locate)\n", n[sim.EventRead], sec[sim.EventRead])
	fmt.Fprintf(w, "tape switches     %d (%.0f s; mean gap %.0f s)\n", n[sim.EventSwitch], sec[sim.EventSwitch], s.MeanSwitchGap)
	fmt.Fprintf(w, "mean sweep        %.1f reads per tape visit\n", s.MeanSweepLen)
	fmt.Fprintf(w, "completions       %d\n", n[sim.EventComplete])
	if n[sim.EventWriteFlush] > 0 {
		fmt.Fprintf(w, "write flushes     %d\n", n[sim.EventWriteFlush])
	}
	if n[sim.EventIdle] > 0 {
		fmt.Fprintf(w, "idle              %d spells, %.0f s\n", n[sim.EventIdle], sec[sim.EventIdle])
	}
	if n[sim.EventExpire]+n[sim.EventShed]+n[sim.EventReject] > 0 {
		fmt.Fprintf(w, "overload          %d expired, %d shed, %d rejected\n", n[sim.EventExpire], n[sim.EventShed], n[sim.EventReject])
	}
	if n[sim.EventRepairRead]+n[sim.EventRepairWrite]+n[sim.EventReclaim] > 0 {
		fmt.Fprintf(w, "repair            %d reads, %d writes, %d reclaims (%.0f s; mean read-to-write %.0f s)\n",
			n[sim.EventRepairRead], n[sim.EventRepairWrite], n[sim.EventReclaim],
			sec[sim.EventRepairRead]+sec[sim.EventRepairWrite], s.MeanReadToWriteSec)
	}
	if n[sim.EventScrubRead]+n[sim.EventLatentFound]+n[sim.EventEvacuate]+n[sim.EventDriveFence] > 0 {
		fmt.Fprintf(w, "health            %d scrub reads (%.0f s), %d latent found (mean latency %.0f s), %d evacuations, %d fences\n",
			n[sim.EventScrubRead], sec[sim.EventScrubRead], n[sim.EventLatentFound], s.MeanFoundLatencySec,
			n[sim.EventEvacuate], n[sim.EventDriveFence])
	}
	if s.BusiestTape >= 0 {
		fmt.Fprintf(w, "busiest tape      %d (%.0f%% of reads)\n", s.BusiestTape, 100*s.BusiestTapeFrac)
	}
}
