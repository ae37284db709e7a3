package sched

import (
	"math/bits"

	"adaserve/internal/request"
)

// FastServe is the FastServe baseline: preemptive multi-level feedback queue
// (MLFQ) scheduling at iteration granularity. A request's queue level grows
// with the output tokens it has received (skip-join: long prompts start at a
// deeper level), and each decode iteration serves only the shallowest
// non-empty level, preempting deeper ones. This fights head-of-line blocking
// by long requests but is oblivious to per-request SLOs.
type FastServe struct {
	base
	// lastServed tracks each request's most recent decode time.
	lastServed map[int]float64
}

// NewFastServe constructs the baseline.
func NewFastServe(cfg Config) (*FastServe, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &FastServe{base: b, lastServed: make(map[int]float64)}, nil
}

// fastServeLevels caps the MLFQ depth.
const fastServeLevels = 8

// fastServeAgingQuantum promotes a starved request one level per this many
// seconds without service (FastServe's starvation prevention).
const fastServeAgingQuantum = 0.25

// Name implements System.
func (f *FastServe) Name() string { return "FastServe" }

// level assigns a request's MLFQ level: log2 of tokens served, skip-joined
// by prompt length (FastServe demotes long-prompt requests on entry so they
// cannot monopolize the top queue).
func (f *FastServe) level(r *request.Request) int {
	served := r.OutputLen()
	skip := 0
	if r.PromptLen >= 1024 {
		skip = 2
	} else if r.PromptLen >= 512 {
		skip = 1
	}
	lvl := bits.Len(uint(served)) + skip // 0 tokens -> level 0 (+skip)
	if lvl >= fastServeLevels {
		lvl = fastServeLevels - 1
	}
	return lvl
}

// effectiveLevel applies starvation prevention: a request unserved for k
// aging quanta is promoted k levels.
func (f *FastServe) effectiveLevel(r *request.Request, now float64) int {
	lvl := f.level(r)
	last, ok := f.lastServed[r.ID]
	if !ok {
		last = r.ArrivalTime
	}
	lvl -= int((now - last) / fastServeAgingQuantum)
	if lvl < 0 {
		lvl = 0
	}
	return lvl
}

// Iterate implements System.
func (f *FastServe) Iterate(now float64) IterationStats {
	f.finish()
	f.admitFIFO(now)

	if st, ok := f.prefillWhole(now); ok {
		return st
	}

	decode := f.pool.DecodingRequests()
	if len(decode) == 0 {
		return IterationStats{Idle: true}
	}
	// Work-conserving MLFQ: fill the decode batch in (aged) level order,
	// shallowest first; requests beyond the batch cap are preempted at
	// iteration granularity. The cap binds under load, which is when MLFQ
	// ordering matters.
	ordered := append([]*request.Request(nil), decode...)
	sortStable(ordered, func(a, c *request.Request) bool {
		la, lc := f.effectiveLevel(a, now), f.effectiveLevel(c, now)
		if la != lc {
			return la < lc
		}
		if a.ArrivalTime != c.ArrivalTime {
			return a.ArrivalTime < c.ArrivalTime
		}
		return a.ID < c.ID
	})
	run := ordered
	if len(run) > f.cfg.MaxBatch {
		run = run[:f.cfg.MaxBatch]
	}
	st := f.decodeStep(now, run, nil)
	end := now + st.Elapsed
	for _, r := range run {
		f.lastServed[r.ID] = end
		if r.Phase == request.Done {
			delete(f.lastServed, r.ID)
		}
	}
	return st
}
