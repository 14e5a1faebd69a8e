package sim

import "testing"

// TestEventKindNames checks the name table: every kind has its own name,
// which parses back to it, and a value no kind has prints and parses as
// unknown.
func TestEventKindNames(t *testing.T) {
	seen := make(map[string]EventKind)
	for k := EventKind(0); int(k) < len(kindNames); k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
		if got := ParseEventKind(name); got != k {
			t.Errorf("ParseEventKind(%q) = %d, want %d", name, got, k)
		}
	}
	if got := ParseEventKind("defragment"); got != -1 {
		t.Errorf("ParseEventKind of an unknown name = %d, want -1", got)
	}
	for _, k := range []EventKind{-1, EventKind(len(kindNames))} {
		if got := k.String(); got != "unknown" {
			t.Errorf("EventKind(%d).String() = %q, want unknown", k, got)
		}
	}
}
