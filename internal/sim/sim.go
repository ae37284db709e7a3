// Package sim is the closed-loop trace-replay entry point: it feeds a trace
// of requests into a serving system, advances simulated time by the
// durations the system's iterations report, and aggregates metrics.
//
// Run is a thin compatibility wrapper over the unified event-driven driver
// in internal/serve (a single-instance backend over a TraceSource), kept so
// experiments and examples can replay a closed trace in one call. Semantics
// are the driver's: arrivals become visible at iteration boundaries
// (systems schedule at iteration granularity, as all the compared systems
// do); the run ends when every request has completed, so SLO attainment is
// measured over the entire trace with no truncation bias. Callers that need
// the streaming lifecycle — observers, live snapshots, open-loop or
// programmatic sources — use internal/serve directly.
package sim

import (
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// Result reports a completed run.
type Result struct {
	Summary *metrics.Summary
	// Iterations is the number of scheduling iterations executed.
	Iterations int
	// EndTime is the simulated completion time of the last request.
	EndTime float64
	// Breakdown aggregates the per-iteration time components.
	Breakdown metrics.Breakdown
}

// Run drives the system over the request trace until every request is done,
// under the driver's default run bounds (serve.DefaultMaxSimTime,
// serve.DefaultMaxIterations).
func Run(sys sched.System, reqs []*request.Request) (*Result, error) {
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.SingleSystem(sys), serve.Options{})
	if err != nil {
		return nil, err
	}
	rr, err := srv.Run(src)
	if err != nil {
		return nil, err
	}
	return &Result{
		Summary:    metrics.Summarize(sys.Name(), reqs, rr.Breakdown),
		Iterations: rr.Iterations,
		EndTime:    rr.EndTime,
		Breakdown:  rr.Breakdown,
	}, nil
}
