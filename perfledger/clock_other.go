//go:build !linux

package main

import "time"

// threadCPUTime falls back to the process's CPU time where no per-thread
// clock is wired up; the benchmark's figures are measured on Linux.
func threadCPUTime() time.Duration { return cpuTime() }
