package main

import (
	"fmt"
	"math"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// refNominal defines the calibrated second: a second on a host that runs
// the reference workload in exactly this much CPU time. A quiet 2-vCPU Xeon
// virtual machine runs it in about 87 ms.
const refNominal = 100 * time.Millisecond

// reference is a fixed workload that measures how fast the host runs right
// now. On a host that lends its cores to other guests, the same simulation
// takes up to 1.4 times more CPU time from one minute to the next as their
// load changes. Every timed run is preceded by the reference, and the
// run's times are scaled by refNominal over the reference's time, which
// cancels most of the drift.
//
// The reference pairs two kernels the simulator's time depends on: hashing,
// float math and small allocations through a direct-mapped cache, the shape
// of the synthetic models' distribution caches; and dependent loads around
// a 32 MB ring, the cache misses of a large pointer-heavy heap. Measured
// for 45 minutes against all four workloads on a 2-vCPU Xeon virtual
// machine, the geometric mean of these two tracked them best of four
// candidate kernels: the per-run CPU times and the reference times had a
// correlation of 0.85 in logarithm. Across twelve processes running one
// workload and seed, it cut the spread of the median CPU time from 15 %
// to 5 %.
type reference struct {
	// ring lives in an anonymous mapping, off the Go heap: as live heap it
	// would raise the collector's heap target for every measured run, and
	// so change how often the simulator's garbage is collected.
	mapping []byte
	ring    []uint32
}

// refSink keeps the kernels' results live so the compiler keeps the work.
var refSink float64

func newReference() (*reference, error) {
	const n = 1 << 23
	mem, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference ring: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), n)
	for i := range ring {
		ring[i] = uint32(i)
	}
	// Sattolo's shuffle leaves a single cycle through every slot, so
	// following it is one long chain of dependent loads.
	x := uint64(0x9e3779b97f4a7c15)
	for i := n - 1; i > 0; i-- {
		x = xorshift(x)
		j := int(x % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &reference{mapping: mem, ring: ring}, nil
}

// release unmaps the ring; the reference must not be timed afterwards.
func (r *reference) release() error { return syscall.Munmap(r.mapping) }

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// time runs both kernels after a collection and returns the geometric mean
// of their CPU times. A nil reference runs nothing and returns refNominal,
// leaving times uncalibrated; the tests use it.
func (r *reference) time() time.Duration {
	if r == nil {
		return refNominal
	}
	runtime.GC()
	c0 := cpuTime()
	acc := distKernel()
	c1 := cpuTime()
	p := uint32(0)
	for i := 0; i < 750_000; i++ {
		p = r.ring[p]
	}
	c2 := cpuTime()
	refSink = acc + float64(p)
	return time.Duration(math.Sqrt(float64(c1-c0) * float64(c2-c1)))
}

// distKernel builds small sorted distributions on a miss in a 4096-slot
// direct-mapped cache keyed by a hashed context, as the synthetic models do.
func distKernel() float64 {
	type dist struct {
		key   uint64
		toks  [16]int32
		probs [16]float64
	}
	cache := make([]*dist, 4096)
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < 150_000; i++ {
		x = xorshift(x)
		key := x & (1<<15 - 1)
		d := cache[key&4095]
		if d == nil || d.key != key {
			d = &dist{key: key}
			h := key * 0x9e3779b97f4a7c15
			for j := range d.probs {
				h ^= h >> 29
				h *= 0xbf58476d1ce4e5b9
				d.probs[j] = math.Exp(-float64(h&1023) / 256)
				d.toks[j] = int32(h >> 40)
			}
			for j := 1; j < len(d.probs); j++ {
				for k := j; k > 0 && d.probs[k] > d.probs[k-1]; k-- {
					d.probs[k], d.probs[k-1] = d.probs[k-1], d.probs[k]
					d.toks[k], d.toks[k-1] = d.toks[k-1], d.toks[k]
				}
			}
			cache[key&4095] = d
		}
		acc += d.probs[x&15] * float64(d.toks[x>>60])
	}
	return acc
}
