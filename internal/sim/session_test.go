package sim

import (
	"reflect"
	"slices"
	"testing"

	"tapejuke/internal/layout"
)

// TestSessionSharedLayout pins the contract of a layout handed to a
// session from outside, as the farm hands its planned layout to every
// shard's session: a run whose layout configuration equals the layout's
// runs on it, a run of another geometry builds its own, a repair run
// builds its own too, and after that repair run every block's copies in
// the shared layout are what they were.
func TestSessionSharedLayout(t *testing.T) {
	cfg := openRepairCfg(2)
	layCfg, _, err := cfg.LayoutConfig()
	if err != nil {
		t.Fatal(err)
	}
	shared, err := layout.Build(layCfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]layout.Replica, shared.NumBlocks())
	for b := range before {
		before[b] = slices.Clone(shared.Replicas(layout.BlockID(b)))
	}
	s := NewSession()

	s.ShareLayout(shared)
	if _, err := s.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if s.Layout() != shared {
		t.Error("a run with the shared layout's configuration built its own")
	}

	s.ShareLayout(shared)
	other := openRepairCfg(1)
	if _, err := s.Run(other); err != nil {
		t.Fatal(err)
	}
	if s.Layout() == shared {
		t.Error("a run of another geometry ran on the shared layout")
	}

	s.ShareLayout(shared)
	rep := openRepairCfg(2)
	rep.Repair = RepairConfig{Enable: true}
	res, err := s.Run(rep)
	if err != nil {
		t.Fatal(err)
	}
	if res.RepairedCopies == 0 {
		t.Fatal("the repair run rebuilt no copies, so it never mutated a layout")
	}
	if s.Layout() == shared {
		t.Error("a repair run ran on the shared layout")
	}
	for b, want := range before {
		if got := shared.Replicas(layout.BlockID(b)); !reflect.DeepEqual(got, want) {
			t.Fatalf("block %d: the repair run changed the shared layout's copies from %v to %v", b, want, got)
		}
	}
}
