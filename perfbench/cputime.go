//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID: the CPU time of every
// thread of the process. The kernel leaves time stolen by the hypervisor
// out of it, so a run on a CPU that was stolen from reads the same as one
// on an idle host, where a wall clock would charge the steal to the
// program. Unlike one thread's clock it also charges the Go runtime's
// own threads, so the garbage collector's mark and sweep work counts
// wherever the runtime schedules it.
const clockProcessCPUTime = 2

func readProcessCPU() (time.Duration, error) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %w", errno)
	}
	return time.Duration(ts.Nano()), nil
}

// checkCPUClock reports whether the process CPU clock can be read; after
// it succeeds, processCPU cannot fail.
func checkCPUClock() error {
	_, err := readProcessCPU()
	return err
}

// processCPU is the CPU time the whole process has used so far.
func processCPU() time.Duration {
	d, _ := readProcessCPU() // checked by checkCPUClock
	return d
}
