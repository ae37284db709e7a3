package main

import (
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/kvcache"
	"adaserve/internal/obs/hist"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// Seams are the exported call sites the traced run times. Each names the
// layer whose code runs inside the call.
const (
	seamRun          = iota // serve.Server.Run: the whole serving loop
	seamIterate             // sched.System.Iterate
	seamRelease             // sched.System.Release
	seamProbe               // cluster.PrefixProber.PrefixCachedTokens (kvcache)
	seamRoute               // cluster.Router.Route and RouteDecode
	seamDispatch            // serve.Backend.Dispatch (the cluster)
	seamAfterIterate        // serve.Backend.AfterIterate (the cluster)
	seamSource              // serve.Source Pop, the Peek after it, and session follow-ups
	seamFaults              // fault injector OnEvent/Tick
	seamAutoscale           // autoscaler OnEvent/Tick
	seamAdaptive            // admission controller OnEvent/Tick/Decide
	seamObs                 // span recorder and metrics exporter OnEvent
	seamResults             // cluster.Cluster.Results (metrics assembly)
	numSeams
)

// seam accumulates one call site's timings over every traced run.
type seam struct {
	calls       int64
	total, self time.Duration
	// perCall holds each call's duration in seconds, for the seams whose
	// percentiles are reported.
	perCall hist.Histogram
}

// percentileSeams are the seams whose per-call percentiles are reported;
// the others skip the histogram, which is most of a seam's own cost.
var percentileSeams = [numSeams]bool{seamIterate: true, seamRoute: true, seamDispatch: true}

// frame is one open call on the tracer's nesting stack; child sums the
// durations of the seams it called, which its self time excludes.
type frame struct {
	id           int
	start, child time.Duration
}

// tracer times the seams of one traced run. The simulator runs on one
// goroutine, so a plain stack gives each seam its self time: its duration
// minus the part its nested seams cover. A nil *tracer wraps nothing and
// records nothing, which is how the untraced runs build the same objects.
type tracer struct {
	seams [numSeams]seam
	stack []frame
	// Frames are stamped as time since epoch: one monotonic clock read,
	// where time.Now would also read the wall clock.
	epoch time.Time

	// Iterate outcomes, for the scheduler's per-layer counts.
	idleIters  int64
	tokens     int64
	runningSum int64

	// Each traced run writes its CPU profile to profileBase-<n>.pprof.
	profileBase string
	profiles    []string
	profile     *os.File
}

// startProfile starts a CPU profile for the next run.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	path := fmt.Sprintf("%s-%d.pprof", t.profileBase, len(t.profiles))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	t.profile = f
	t.profiles = append(t.profiles, path)
	return nil
}

// stopProfile ends the run's CPU profile.
func (t *tracer) stopProfile() error {
	if t == nil {
		return nil
	}
	pprof.StopCPUProfile()
	return t.profile.Close()
}

func (t *tracer) begin(id int) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, frame{id: id, start: time.Since(t.epoch)})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.stack) - 1
	f := t.stack[n]
	t.stack = t.stack[:n]
	d := time.Since(t.epoch) - f.start
	s := &t.seams[f.id]
	s.calls++
	s.total += d
	s.self += d - f.child
	if percentileSeams[f.id] {
		s.perCall.Observe(d.Seconds())
	}
	if n > 0 {
		t.stack[n-1].child += d
	}
}

// prefixSystem is what every sched system offers through its shared base:
// the prefix-affinity router's probe and the cluster's prefix-stats probe.
// A wrapper that dropped either would silently change routing or the
// prefix summary, so the traced wrapper forwards both.
type prefixSystem interface {
	sched.System
	cluster.PrefixProber
	KVPrefixStats() (kvcache.PrefixStats, bool)
}

// tracedSystem times Iterate, Release and the prefix probe of a system
// that is not speculation-tunable. It returns the pool the system was built
// with itself: the serving loop asks every instance for its pool on every
// event, and a second dynamic call there would inflate the loop's own time.
type tracedSystem struct {
	prefixSystem
	pool *request.Pool
	t    *tracer
}

// tracedTunable is tracedSystem for a system the adaptive controller can
// retune; the envelope calls pass through untimed.
type tracedTunable struct {
	*tracedSystem
	adaptive.SpecTunable
}

// system wraps sys so it forwards exactly the optional interfaces sys has.
func (t *tracer) system(sys sched.System) (sched.System, error) {
	if t == nil {
		return sys, nil
	}
	ps, ok := sys.(prefixSystem)
	if !ok {
		return nil, fmt.Errorf("system %s lacks the prefix probes the traced wrapper forwards", sys.Name())
	}
	ts := &tracedSystem{prefixSystem: ps, pool: sys.Pool(), t: t}
	if st, ok := sys.(adaptive.SpecTunable); ok {
		return &tracedTunable{tracedSystem: ts, SpecTunable: st}, nil
	}
	return ts, nil
}

func (s *tracedSystem) Pool() *request.Pool { return s.pool }

func (s *tracedSystem) Iterate(now float64) sched.IterationStats {
	s.t.begin(seamIterate)
	st := s.prefixSystem.Iterate(now)
	s.t.end()
	if st.Idle {
		s.t.idleIters++
	} else {
		s.t.tokens += int64(st.TokensCommitted)
		s.t.runningSum += int64(s.pool.NumRunning())
	}
	return st
}

func (s *tracedSystem) Release(r *request.Request) {
	s.t.begin(seamRelease)
	s.prefixSystem.Release(r)
	s.t.end()
}

func (s *tracedSystem) PrefixCachedTokens(r *request.Request) int {
	s.t.begin(seamProbe)
	n := s.prefixSystem.PrefixCachedTokens(r)
	s.t.end()
	return n
}

type tracedRouter struct {
	cluster.Router
	t *tracer
}

func (t *tracer) router(r cluster.Router) cluster.Router {
	if t == nil {
		return r
	}
	return &tracedRouter{Router: r, t: t}
}

func (r *tracedRouter) Route(req *request.Request, reps []*cluster.Replica) int {
	r.t.begin(seamRoute)
	i := r.Router.Route(req, reps)
	r.t.end()
	return i
}

func (r *tracedRouter) RouteDecode(req *request.Request, reps []*cluster.Replica) int {
	r.t.begin(seamRoute)
	i := r.Router.RouteDecode(req, reps)
	r.t.end()
	return i
}

type tracedBackend struct {
	serve.Backend
	t *tracer
}

func (t *tracer) backend(b serve.Backend) serve.Backend {
	if t == nil {
		return b
	}
	return &tracedBackend{Backend: b, t: t}
}

func (b *tracedBackend) Dispatch(r *request.Request) (*serve.Instance, error) {
	b.t.begin(seamDispatch)
	in, err := b.Backend.Dispatch(r)
	b.t.end()
	return in, err
}

func (b *tracedBackend) AfterIterate(in *serve.Instance, q *serve.Queue) error {
	b.t.begin(seamAfterIterate)
	err := b.Backend.AfterIterate(in, q)
	b.t.end()
	return err
}

// tracedSource times a source's Pop and the first Peek after it. A source
// does its work there: an open loop draws the next request in that Peek,
// and every later Peek returns the same arrival again. The serving loop
// peeks on every event, so those repeats pass through untimed, and their
// small cost stays in the loop's own time instead of tracing overhead.
type tracedSource struct {
	serve.Source
	t      *tracer
	peeked bool
}

func (t *tracer) source(s serve.Source) serve.Source {
	if t == nil {
		return s
	}
	return &tracedSource{Source: s, t: t}
}

func (s *tracedSource) Peek() (float64, bool) {
	if s.peeked {
		return s.Source.Peek()
	}
	s.peeked = true
	s.t.begin(seamSource)
	at, ok := s.Source.Peek()
	s.t.end()
	return at, ok
}

func (s *tracedSource) Pop() *request.Request {
	s.peeked = false
	s.t.begin(seamSource)
	r := s.Source.Pop()
	s.t.end()
	return r
}

type tracedObserver struct {
	serve.Observer
	t  *tracer
	id int
}

// observer wraps o so its OnEvent time lands on seam id.
func (t *tracer) observer(o serve.Observer, id int) serve.Observer {
	if t == nil {
		return o
	}
	return &tracedObserver{Observer: o, t: t, id: id}
}

func (o *tracedObserver) OnEvent(ev serve.Event) {
	o.t.begin(o.id)
	o.Observer.OnEvent(ev)
	o.t.end()
}

type tracedFaults struct {
	serve.FaultInjector
	t *tracer
}

func (t *tracer) faults(f serve.FaultInjector) serve.FaultInjector {
	if t == nil {
		return f
	}
	return &tracedFaults{FaultInjector: f, t: t}
}

func (f *tracedFaults) OnEvent(ev serve.Event) {
	f.t.begin(seamFaults)
	f.FaultInjector.OnEvent(ev)
	f.t.end()
}

func (f *tracedFaults) Tick(now float64, q *serve.Queue) []serve.FaultAction {
	f.t.begin(seamFaults)
	acts := f.FaultInjector.Tick(now, q)
	f.t.end()
	return acts
}

type tracedAutoscaler struct {
	serve.Autoscaler
	t *tracer
}

func (t *tracer) autoscaler(a serve.Autoscaler) serve.Autoscaler {
	if t == nil {
		return a
	}
	return &tracedAutoscaler{Autoscaler: a, t: t}
}

func (a *tracedAutoscaler) OnEvent(ev serve.Event) {
	a.t.begin(seamAutoscale)
	a.Autoscaler.OnEvent(ev)
	a.t.end()
}

func (a *tracedAutoscaler) Tick(now float64, q *serve.Queue) []serve.ScaleAction {
	a.t.begin(seamAutoscale)
	acts := a.Autoscaler.Tick(now, q)
	a.t.end()
	return acts
}

type tracedAdmission struct {
	serve.AdmissionController
	t *tracer
}

func (t *tracer) admission(a serve.AdmissionController) serve.AdmissionController {
	if t == nil {
		return a
	}
	return &tracedAdmission{AdmissionController: a, t: t}
}

func (a *tracedAdmission) OnEvent(ev serve.Event) {
	a.t.begin(seamAdaptive)
	a.AdmissionController.OnEvent(ev)
	a.t.end()
}

func (a *tracedAdmission) Tick(now float64) {
	a.t.begin(seamAdaptive)
	a.AdmissionController.Tick(now)
	a.t.end()
}

func (a *tracedAdmission) Decide(r *request.Request) (serve.AdmissionDecision, string) {
	a.t.begin(seamAdaptive)
	d, reason := a.AdmissionController.Decide(r)
	a.t.end()
	return d, reason
}
