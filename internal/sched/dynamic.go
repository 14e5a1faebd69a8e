package sched

// Dynamic is a dynamic scheduling algorithm (Section 3.1): the major
// rescheduler is identical to the static algorithm with the same policy,
// but requests that arrive during the execution of a service list are
// inserted into the in-flight sweep on the fly, provided the requested
// block is on the current tape at a position still ahead of the head.
type Dynamic struct {
	policy Policy
	sel    Selector
}

// NewDynamic returns the dynamic algorithm with the given tape-selection
// policy.
func NewDynamic(p Policy) *Dynamic { return &Dynamic{policy: p} }

// Name returns e.g. "dynamic-max-bandwidth".
func (d *Dynamic) Name() string { return "dynamic-" + d.policy.String() }

// Policy returns the tape-selection policy.
func (d *Dynamic) Policy() Policy { return d.policy }

// Reschedule behaves exactly like the static algorithm's major rescheduler.
func (d *Dynamic) Reschedule(st *State) (int, *Sweep, bool) {
	return d.sel.Reschedule(st, d.policy, nil)
}

// OnArrival inserts the request into the current sweep when its block has a
// readable copy on the mounted tape whose position the head has not yet
// passed.
func (d *Dynamic) OnArrival(st *State, r *Request) bool {
	if st.Active == nil || st.Mounted < 0 || !st.Up(st.Mounted) {
		return false
	}
	c, ok := st.Layout.ReplicaOn(r.Block, st.Mounted)
	if !ok || !st.CopyOK(c) {
		return false
	}
	r.Target = c
	return st.Active.Insert(r, st.Head)
}
