package pool

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestEachRunsEveryIndexOnce runs with one worker, one per task, and more
// workers than tasks. Each worker's W is a plain counter bumped without
// synchronization, so a W shared between workers fails under -race.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, n, n + 1} {
		var runs [n]atomic.Int32
		var made atomic.Int32
		newWorker := func() *int {
			made.Add(1)
			return new(int)
		}
		errs := Each(n, workers, newWorker, func(w *int, i int) error {
			*w++
			runs[i].Add(1)
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers %d: %d error slots, want %d", workers, len(errs), n)
		}
		for i := range runs {
			if got := runs[i].Load(); got != 1 || errs[i] != nil {
				t.Errorf("workers %d: index %d ran %d times, error %v", workers, i, got, errs[i])
			}
		}
		if got, want := int(made.Load()), min(workers, n); got != want {
			t.Errorf("workers %d: %d workers made, want %d", workers, got, want)
		}
	}
}

// TestEachStopsClaimingAfterFailure checks that the failing task's error
// sits in its own slot and, with one worker, that no later index runs.
func TestEachStopsClaimingAfterFailure(t *testing.T) {
	boom := errors.New("boom")
	var ran []int
	errs := Each(10, 1, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		ran = append(ran, i)
		if i == 3 {
			return boom
		}
		return nil
	})
	if len(ran) != 4 || ran[3] != 3 {
		t.Errorf("ran %v, want 0 through 3", ran)
	}
	for i, err := range errs {
		var want error
		if i == 3 {
			want = boom
		}
		if err != want {
			t.Errorf("slot %d = %v, want %v", i, err, want)
		}
	}

	// With several workers only the failing slot holds an error.
	errs = Each(100, 4, func() struct{} { return struct{}{} }, func(_ struct{}, i int) error {
		if i == 17 {
			return boom
		}
		return nil
	})
	for i, err := range errs {
		if (err != nil) != (i == 17) {
			t.Errorf("4 workers: slot %d = %v", i, err)
		}
	}
}

// TestEachEmpty checks that no worker starts for zero tasks.
func TestEachEmpty(t *testing.T) {
	errs := Each(0, 8, func() int {
		t.Error("a worker started for zero tasks")
		return 0
	}, func(int, int) error {
		t.Error("a task ran for zero tasks")
		return nil
	})
	if len(errs) != 0 {
		t.Errorf("%d error slots, want 0", len(errs))
	}
}
