package sched

// Static is a static scheduling algorithm (Section 3.1): at tape switch
// time it chooses a tape with the configured policy and forms the service
// list from every pending request that tape can satisfy. Newly arriving
// requests are always deferred to the pending list, even when they are for
// a block on the current tape.
type Static struct {
	policy Policy
	sel    Selector
}

// NewStatic returns the static algorithm with the given tape-selection
// policy.
func NewStatic(p Policy) *Static { return &Static{policy: p} }

// Name returns e.g. "static-max-bandwidth".
func (s *Static) Name() string { return "static-" + s.policy.String() }

// Policy returns the tape-selection policy.
func (s *Static) Policy() Policy { return s.policy }

// Reschedule chooses a tape by policy and extracts all pending requests
// satisfiable by that tape, sorted into a single sweep from the post-switch
// head position.
func (s *Static) Reschedule(st *State) (int, *Sweep, bool) {
	return s.sel.Reschedule(st, s.policy, nil)
}

// OnArrival always defers.
func (*Static) OnArrival(*State, *Request) bool { return false }
