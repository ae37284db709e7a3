package serve

import (
	"fmt"
	"math"
	"sort"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// Source feeds requests into the driver in non-decreasing arrival order.
//
// Peek/Pop let the driver interleave arrivals with iteration boundaries and
// internal deliveries in global event-time order without materializing the
// whole stream. The driver re-Peeks after every event it processes, so a
// programmatic source (SubmitSource) may become non-empty again mid-run; a
// run ends when the source reports empty and no instance has work left.
type Source interface {
	// Peek returns the arrival time of the next request without consuming
	// it; ok is false when no request is pending.
	Peek() (t float64, ok bool)
	// Pop consumes and returns the next request. Valid only directly after a
	// Peek that returned ok.
	Pop() *request.Request
}

// TraceSource replays a fixed request trace in the canonical replay order
// (request.OrderForReplay: FIFO by arrival time, then ID) — the Source of
// every closed-trace run.
type TraceSource struct {
	ordered []*request.Request
	next    int
}

// NewTraceSource validates the trace and fixes its replay order.
func NewTraceSource(reqs []*request.Request) (*TraceSource, error) {
	ordered, err := request.OrderForReplay(reqs)
	if err != nil {
		return nil, err
	}
	return &TraceSource{ordered: ordered}, nil
}

// Peek implements Source.
func (t *TraceSource) Peek() (float64, bool) {
	if t.next >= len(t.ordered) {
		return 0, false
	}
	return t.ordered[t.next].ArrivalTime, true
}

// Pop implements Source.
func (t *TraceSource) Pop() *request.Request {
	r := t.ordered[t.next]
	t.next++
	return r
}

// SubmitSource is the programmatic Source: tests, examples and online
// drivers Submit requests — before the run, or from observer callbacks while
// it executes — and the driver consumes them in (arrival time, ID) order.
// Request IDs must be unique across the run.
//
// Storage is a head-indexed slice: Pop nils the consumed slot and advances
// head, and the live window compacts to the front once the dead prefix
// dominates, so a long session run retains O(live) request pointers instead
// of every request ever popped (reslicing from the head would keep the whole
// backing array — and everything it points to — reachable).
type SubmitSource struct {
	pending []*request.Request
	head    int
}

// NewSubmitSource returns an empty programmatic source.
func NewSubmitSource() *SubmitSource { return &SubmitSource{} }

// compact moves the live window to the front of the backing array when the
// consumed prefix is at least as long as the live tail, keeping Pop
// amortized O(1) while bounding retention at ~2× the live request count.
func (s *SubmitSource) compact() {
	if s.head == 0 || s.head < len(s.pending)-s.head {
		return
	}
	n := copy(s.pending, s.pending[s.head:])
	tail := s.pending[n:]
	for i := range tail {
		tail[i] = nil
	}
	s.pending = s.pending[:n]
	s.head = 0
}

// Submit validates r and inserts it into the pending stream. Requests
// submitted mid-run should arrive no earlier than the simulation's current
// time; an earlier arrival is legal and served as backlog, but its queueing
// delay then includes the time that already elapsed.
func (s *SubmitSource) Submit(r *request.Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	s.compact()
	live := s.pending[s.head:]
	at := s.head + sort.Search(len(live), func(i int) bool {
		p := live[i]
		return p.ArrivalTime > r.ArrivalTime ||
			(p.ArrivalTime == r.ArrivalTime && p.ID > r.ID)
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[at+1:], s.pending[at:])
	s.pending[at] = r
	return nil
}

// Peek implements Source.
func (s *SubmitSource) Peek() (float64, bool) {
	if s.head >= len(s.pending) {
		return 0, false
	}
	return s.pending[s.head].ArrivalTime, true
}

// Pop implements Source.
func (s *SubmitSource) Pop() *request.Request {
	r := s.pending[s.head]
	s.pending[s.head] = nil
	s.head++
	s.compact()
	return r
}

// OpenLoop synthesizes an open-loop arrival process lazily: timestamps are
// drawn from a (possibly time-varying) Poisson process via Lewis thinning —
// the same sampling workload.NonHomogeneousPoisson uses, one arrival at a
// time — and each is materialized into a request by the workload generator
// the moment the driver first Peeks past it. Runs are deterministic given
// the RNG seed; an OpenLoop is single-use.
type OpenLoop struct {
	gen      *workload.Generator
	rng      *mathutil.RNG
	rate     workload.RateFn
	maxRate  float64
	duration float64

	t    float64
	next *request.Request
	done bool
	n    int
}

// NewOpenLoop builds an open-loop source over [0, duration) seconds with
// the given time-varying rate. maxRate must upper-bound rate over the
// window (the thinning envelope).
func NewOpenLoop(gen *workload.Generator, rng *mathutil.RNG, rate workload.RateFn, maxRate, duration float64) (*OpenLoop, error) {
	if gen == nil {
		return nil, fmt.Errorf("serve: open-loop source needs a generator")
	}
	if rng == nil {
		return nil, fmt.Errorf("serve: open-loop source needs an RNG")
	}
	if rate == nil {
		return nil, fmt.Errorf("serve: open-loop source needs a rate function")
	}
	if !(maxRate > 0) || math.IsInf(maxRate, 1) {
		return nil, fmt.Errorf("serve: open-loop max rate %g must be positive and finite", maxRate)
	}
	if !(duration > 0) || math.IsInf(duration, 1) {
		return nil, fmt.Errorf("serve: open-loop duration %g must be positive and finite", duration)
	}
	return &OpenLoop{gen: gen, rng: rng, rate: rate, maxRate: maxRate, duration: duration}, nil
}

// advance draws arrivals until one survives thinning or the window ends.
func (o *OpenLoop) advance() {
	if o.next != nil || o.done {
		return
	}
	for {
		o.t += o.rng.ExpFloat64() / o.maxRate
		if o.t >= o.duration {
			o.done = true
			return
		}
		if o.rng.Float64() < o.rate(o.t)/o.maxRate {
			o.next = o.gen.MakeMixedAt(o.t)
			o.n++
			return
		}
	}
}

// Peek implements Source.
func (o *OpenLoop) Peek() (float64, bool) {
	o.advance()
	if o.next == nil {
		return 0, false
	}
	return o.next.ArrivalTime, true
}

// Pop implements Source.
func (o *OpenLoop) Pop() *request.Request {
	r := o.next
	o.next = nil
	return r
}

// Generated returns the number of requests generated so far.
func (o *OpenLoop) Generated() int { return o.n }
