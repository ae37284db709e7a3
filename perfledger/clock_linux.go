package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID from <time.h>.
const clockThreadCPUTime = 3

// threadCPUTime is the calling thread's CPU time, to the nanosecond. A
// set-up runs locked to its thread, so this is the set-up's own work,
// garbage-collection assists included, without the collector's background
// workers on the other threads or time stolen by other guests. (getrusage
// with RUSAGE_THREAD counts in scheduler ticks, too coarse for a set-up of
// half a millisecond.)
func threadCPUTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
