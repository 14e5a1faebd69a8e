package sched

import (
	"testing"
	"unsafe"
)

// TestRequestSize pins Request at one 64-byte cache line: Place and
// Ephemeral share the padding before DeadlineSlot.
func TestRequestSize(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n != 64 {
		t.Errorf("sched.Request is %d bytes, want 64", n)
	}
}
