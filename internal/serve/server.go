// Package serve is the unified event-driven serving driver behind every
// simulation entry point: one streaming request-lifecycle loop that feeds
// requests from a pluggable Source into a Backend — a single serving system
// or a multi-replica cluster — advances per-instance clocks at iteration
// granularity, and emits a typed event stream (RequestAdmitted, FirstToken,
// TokensCommitted, SLOViolated, RequestFinished, periodic Snapshot) to
// registered observers, with rolling windowed metrics computed
// incrementally instead of only at end of run.
//
// experiments.RunSpec describes every run and builds its Server: closed
// trace replay is a Server over a TraceSource. Online scenarios — open-loop
// arrival processes with time-varying rate, closed-loop sessions, live
// dashboards — use the same loop, so replayed and streamed runs share
// identical clock and visibility semantics: arrivals become visible at
// iteration boundaries, events are processed in global (time, ID) order,
// and all tie-breaking is deterministic.
package serve

import (
	"errors"
	"fmt"
	"math"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
)

// Run bounds shared by every run, and the default snapshot window.
const (
	// defaultMaxSimTime aborts runs when any instance's clock exceeds 24
	// hours.
	defaultMaxSimTime = 24 * 3600.0
	// defaultMaxIterations aborts runaway runs at 50 million iterations,
	// summed across instances.
	defaultMaxIterations = 50_000_000
	// DefaultSnapshotWindow is the rolling-metrics trailing window.
	DefaultSnapshotWindow = 30.0
)

// Options configures a serving run. The zero value is ready to use: no
// snapshots, no control hooks.
type Options struct {
	// SnapshotEvery emits a periodic Snapshot event every so many simulated
	// seconds, plus a final one at end of run (0: no snapshots). Snapshots
	// require at least one observer.
	SnapshotEvery float64
	// Window is the rolling-metrics trailing window for Snapshot events
	// (0: DefaultSnapshotWindow).
	Window float64
	// Autoscaler, when set, resizes the backend mid-run: the driver
	// subscribes it to the event stream ahead of user observers and calls
	// Tick at every iteration boundary, emitting the actions it takes as
	// ScaleUp/ScaleDown events. nil (the default) leaves the fleet static
	// and the run byte-identical to a driver without the hook.
	Autoscaler Autoscaler
	// Adaptive, when set, closes the serving control loop mid-run: the
	// driver subscribes it to the event stream (after the autoscaler, ahead
	// of user observers), consults Decide for every arrival before routing —
	// emitting RequestRejected/RequestDegraded for gated requests — and
	// calls Tick at every iteration boundary so the controller can retune
	// speculation. nil (the default) admits every arrival as submitted and
	// keeps the run byte-identical to a driver without the hook.
	Adaptive AdmissionController
	// Faults, when set, injects failures and drives recovery mid-run: the
	// driver subscribes it to the event stream ahead of every other observer
	// and ticks it before the autoscaler at every iteration boundary (so
	// scaling decisions see the post-fault fleet), emitting the actions it
	// takes as ReplicaFailed/ReplicaRecovered/RequestRetried/RequestHedged
	// events. nil (the default) keeps the run byte-identical to a driver
	// without the hook.
	Faults FaultInjector
}

// fill resolves zero values to the shared defaults.
func (o *Options) fill() {
	if o.Window == 0 {
		o.Window = DefaultSnapshotWindow
	}
}

// InstanceResult reports one instance's share of a completed run.
type InstanceResult struct {
	// Iterations is the instance's scheduling-iteration count.
	Iterations int
	// EndTime is the instance's final local clock.
	EndTime float64
}

// Result reports a completed run.
type Result struct {
	// Instances holds per-instance results in ID order.
	Instances []InstanceResult
	// Iterations is the total iteration count across instances.
	Iterations int
	// EndTime is the latest instance clock: the simulated completion time of
	// the last request.
	EndTime float64
	// Breakdown sums the per-instance time components.
	Breakdown metrics.Breakdown
	// Events is the number of events delivered to observers.
	Events int
	// Unplaced counts arrivals the backend could never place: held through
	// a whole-fleet outage (see ErrNoReplica) that outlasted the run. They
	// were never dispatched, so no instance served them.
	Unplaced int
}

// reqTrack is the driver's per-request event-derivation state, kept only
// while observers are registered.
type reqTrack struct {
	lastLen  int
	violTPOT bool
	violTTFT bool
}

// Server drives a Backend over a Source. Like the serving systems it hosts,
// a Server is single-use: build a fresh one per run.
type Server struct {
	backend Backend
	insts   []*Instance
	opts    Options
	// maxSimTime and maxIterations are the run bounds: the shared defaults,
	// lowered only by this package's tests.
	maxSimTime    float64
	maxIterations int
	observers     []Observer
	queue         Queue
	ran           bool
	// idx picks the next instance to act (see next).
	idx *instIndex
	// held queues arrivals, in arrival order, until the backend places them:
	// at once normally, after a whole-fleet outage ends (ErrNoReplica)
	// otherwise.
	held []*request.Request

	// Event-derivation state (allocated only when observers exist; the
	// observer-free hot path skips all of it).
	tracking bool
	seq      int
	events   int
	now      float64
	nextSnap float64
	rolling  *metrics.Rolling
	track    map[int]*reqTrack
	doneSeen []int
}

// NewServer validates the backend and options and builds a driver.
func NewServer(backend Backend, opts Options) (*Server, error) {
	if backend == nil {
		return nil, fmt.Errorf("serve: backend required")
	}
	insts := backend.Instances()
	if len(insts) == 0 {
		return nil, fmt.Errorf("serve: backend has no instances")
	}
	for i, in := range insts {
		if in == nil {
			return nil, fmt.Errorf("serve: instance %d is nil", i)
		}
		if in.id != i {
			return nil, fmt.Errorf("serve: instance at index %d reports ID %d", i, in.id)
		}
	}
	if opts.SnapshotEvery < 0 {
		return nil, fmt.Errorf("serve: negative snapshot interval %g", opts.SnapshotEvery)
	}
	if opts.Window < 0 {
		return nil, fmt.Errorf("serve: negative rolling window %g", opts.Window)
	}
	opts.fill()
	return &Server{backend: backend, insts: insts, opts: opts,
		maxSimTime: defaultMaxSimTime, maxIterations: defaultMaxIterations}, nil
}

// Subscribe registers an observer for the run's event stream. Call before
// Run; observers are invoked in registration order.
func (s *Server) Subscribe(obs Observer) {
	if obs != nil {
		s.observers = append(s.observers, obs)
	}
}

// Run drives the backend until the source is drained and every dispatched
// request retired. Arrivals are dispatched in (arrival time, ID) order;
// internal deliveries (e.g. migrations) are interleaved in event-time order,
// before arrivals only when strictly earlier. The next instance to act is
// always the busy one with the smallest clock (lowest ID on ties), so runs
// are deterministic; an index of the instances finds it without a scan of
// the fleet (see next).
func (s *Server) Run(src Source) (*Result, error) {
	if err := s.start(src); err != nil {
		return nil, err
	}
	total := 0
	for {
		// Events — source arrivals and queued internal deliveries — at or
		// before the next acting instance's clock are processed first, so
		// every placement decision sees all instances advanced past the
		// event instant (the boundary-visibility rule).
		busy := s.next()
		evTime := 0.0
		evInternal := false
		evReady := false
		if t, ok := src.Peek(); ok {
			evTime, evReady = t, true
		}
		if d, ok := s.queue.peek(); ok && (!evReady || d.ready < evTime) {
			evTime, evInternal, evReady = d.ready, true, true
		}
		if evReady && (busy == nil || evTime <= busy.clock) {
			if evInternal {
				d := s.queue.pop()
				d.deliver()
				s.rekeyAll() // a delivery may land work on any instance
				if d.mig != nil && s.tracking {
					// Derivation only: the migration already landed; the event
					// carries its exact in-flight window (Depart → ready).
					s.bumpNow(d.ready)
					s.emit(RequestMigrated{
						EventMeta: s.meta(d.ready), Req: d.mig.Req,
						From: d.mig.From, To: d.mig.To,
						Depart: d.mig.Depart, Bytes: d.mig.Bytes,
					})
				}
				// A delivery (a repair, a started replica) may end an outage.
				if err := s.dispatchHeld(d.ready); err != nil {
					return nil, err
				}
				continue
			}
			r := src.Pop()
			if ac := s.opts.Adaptive; ac != nil {
				dec, reason := ac.Decide(r)
				if dec == AdmissionReject {
					s.noteRejected(r, reason)
					continue
				}
				if dec == AdmissionDegrade {
					s.noteDegraded(r, reason)
				}
			}
			// An arrival queues behind any still held by an outage.
			s.held = append(s.held, r)
			if err := s.dispatchHeld(r.ArrivalTime); err != nil {
				return nil, err
			}
			continue
		}
		if busy == nil {
			break // source drained, every request delivered and retired
		}
		st := busy.sys.Iterate(busy.clock)
		if st.Idle {
			// The Iterate call may have just retired the instance's final
			// requests (systems move committed-Done requests to the pool's
			// done list at the next Iterate, even an idle one), so derive
			// retirement events before anything else; the top of the loop
			// re-checks emptiness. An instance stuck with unrunnable work
			// parks at the next event (which may or may not concern it);
			// with no events left it can never progress: a genuine deadlock.
			s.noteIteration(busy)
			s.tickHooks()
			if !busy.hasWork() {
				continue
			}
			parkAt := -1.0
			if t, ok := src.Peek(); ok {
				parkAt = t
			}
			if d, ok := s.queue.peek(); ok && (parkAt < 0 || d.ready < parkAt) {
				parkAt = d.ready
			}
			if parkAt >= 0 {
				busy.BumpClock(parkAt)
				continue
			}
			p := busy.sys.Pool()
			return nil, fmt.Errorf("serve: instance %d (%s) deadlocked at t=%.3fs with %d waiting / %d running",
				busy.id, busy.sys.Name(), busy.clock, p.NumWaiting(), p.NumRunning())
		}
		if st.Elapsed <= 0 {
			return nil, fmt.Errorf("serve: instance %d (%s) reported non-positive elapsed %g",
				busy.id, busy.sys.Name(), st.Elapsed)
		}
		if busy.stepScale > 0 && busy.stepScale != 1 {
			st.Elapsed *= busy.stepScale // injected straggler slowdown
		}
		busy.clock += st.Elapsed
		busy.iterations++
		total++
		busy.breakdown.Scheduling += st.SchedCPU
		busy.breakdown.Speculation += st.SpecTime
		busy.breakdown.Verification += st.VerifyTime
		busy.breakdown.Prefill += st.PrefillTime
		if err := s.backend.AfterIterate(busy, &s.queue); err != nil {
			return nil, err
		}
		s.noteIteration(busy)
		s.tickHooks()
		if busy.clock > s.maxSimTime {
			return nil, fmt.Errorf("serve: instance %d (%s) exceeded max simulated time %.0fs",
				busy.id, busy.sys.Name(), s.maxSimTime)
		}
		if total > s.maxIterations {
			return nil, fmt.Errorf("serve: exceeded max iterations %d", s.maxIterations)
		}
	}

	// The index saw no work left. Work it was never told of breaks the
	// Backend contract; fail the run rather than drop that work.
	for _, in := range s.insts {
		if in.hasWork() {
			return nil, fmt.Errorf("serve: instance %d (%s) holds work added outside Dispatch, a delivery or a control-hook tick",
				in.id, in.sys.Name())
		}
	}
	return s.finish(total), nil
}

// start checks the run's preconditions and arms it: observer order, event
// derivation, the fault schedule and the next-instance index.
func (s *Server) start(src Source) error {
	if src == nil {
		return fmt.Errorf("serve: source required")
	}
	if s.ran {
		return fmt.Errorf("serve: Server is single-use; build a fresh one per run")
	}
	s.ran = true
	if ac := s.opts.Adaptive; ac != nil {
		s.observers = append([]Observer{ac}, s.observers...)
	}
	if as := s.opts.Autoscaler; as != nil {
		// The autoscaler observes first (then the admission controller):
		// their windows reflect an event before any user observer can react
		// to it.
		s.observers = append([]Observer{as}, s.observers...)
	}
	if fi := s.opts.Faults; fi != nil {
		// The fault injector observes ahead of everything: its failure
		// suspicion must reflect an event before controllers react to it.
		s.observers = append([]Observer{fi}, s.observers...)
	}
	s.tracking = len(s.observers) > 0
	if s.tracking {
		s.track = make(map[int]*reqTrack)
		s.doneSeen = make([]int, len(s.insts))
		if s.opts.SnapshotEvery > 0 {
			s.rolling = metrics.NewRolling(s.opts.Window)
			s.nextSnap = s.opts.SnapshotEvery
		}
	}

	// Let the injector arm its schedule before any work: injections land on
	// the delivery queue at exact instants, interleaved with arrivals.
	s.tickFaults()
	s.idx = newInstIndex(len(s.insts))
	s.rekeyAll()
	return nil
}

// finish settles the run's final boundary and reports it; total is the
// iteration count summed across instances.
func (s *Server) finish(total int) *Result {
	if s.opts.Faults != nil && s.tracking {
		// Actions taken at the run's final boundary (a repair delivered as the
		// last queue event, a hedge resolved at the winner's final tick) have
		// not been drained or event-derived yet: tick once more, then sweep so
		// every adopted retirement still gets its lifecycle events.
		s.tickFaults()
		for _, in := range s.insts {
			s.noteIteration(in)
		}
	}

	res := &Result{Instances: make([]InstanceResult, len(s.insts)), Iterations: total}
	for i, in := range s.insts {
		res.Instances[i] = InstanceResult{
			Iterations: in.iterations,
			EndTime:    in.clock,
		}
		res.Breakdown.Add(in.breakdown)
		if in.clock > res.EndTime {
			res.EndTime = in.clock
		}
	}
	if s.rolling != nil {
		s.bumpNow(res.EndTime)
		s.emitSnapshot(s.now, true)
	}
	res.Events = s.events
	res.Unplaced = len(s.held)
	return res
}

// next returns the instance to act: the one with work and the smallest
// clock, lowest ID on ties, or nil when no instance has work. Every key the
// index stores is a lower bound of its instance's true key, because work
// appears only where the driver re-keys: a dispatch (its instance), a
// delivery or a control-hook tick (every instance). A clock that rises
// (an iteration, a park) or work that drains (an iteration, a harvest, an
// eviction) leaves a stale low key behind, so next re-keys the index's
// minimum until its stored key is its true key. Keys only rise, so that
// minimum is the exact (clock, ID) argmin a scan of the fleet would pick.
func (s *Server) next() *Instance {
	for {
		i, k := s.idx.min()
		if math.IsInf(k, 1) {
			return nil
		}
		in := s.insts[i]
		if t := in.key(); t != k {
			s.idx.set(i, t)
			continue
		}
		return in
	}
}

// rekeyAll stores every instance's true key: O(N), for the events that may
// add work anywhere.
func (s *Server) rekeyAll() {
	for i, in := range s.insts {
		s.idx.key[i] = in.key()
	}
	s.idx.rebuild()
}

// tickHooks lets every control hook act at an iteration boundary. A tick
// may add work to any instance, so the index is re-keyed whole after one.
func (s *Server) tickHooks() {
	s.tickFaults()
	s.tickAutoscaler()
	s.tickAdaptive()
	if s.opts.Faults != nil || s.opts.Autoscaler != nil || s.opts.Adaptive != nil {
		s.rekeyAll()
	}
}

// dispatchHeld dispatches held arrivals in arrival order at event time at,
// keeping the rest from the first one the backend cannot place yet
// (ErrNoReplica). A request released after its arrival is admitted at the
// release: its instance's clock is bumped to at.
func (s *Server) dispatchHeld(at float64) error {
	n := 0
	for ; n < len(s.held); n++ {
		r := s.held[n]
		in, err := s.backend.Dispatch(r)
		if errors.Is(err, ErrNoReplica) {
			break
		}
		if err != nil {
			return err
		}
		in.BumpClock(at)
		s.idx.set(in.id, in.key())
		s.noteAdmitted(r, in, at)
	}
	s.held = s.held[:copy(s.held, s.held[n:])]
	return nil
}

// tickFaults lets the fault injector act at an iteration boundary and emits
// the actions it took — crash and recovery instants land via the delivery
// queue, so Time stamps carry the scheduled instants, not the tick that
// drained them.
func (s *Server) tickFaults() {
	fi := s.opts.Faults
	if fi == nil {
		return
	}
	for _, a := range fi.Tick(s.now, &s.queue) {
		s.bumpNow(a.Time)
		switch a.Kind {
		case FaultReplicaFailed:
			s.emit(ReplicaFailed{EventMeta: s.meta(a.Time), Instance: a.Instance, Lost: a.Lost, Reason: a.Reason})
		case FaultReplicaRecovered:
			s.emit(ReplicaRecovered{EventMeta: s.meta(a.Time), Instance: a.Instance, Downtime: a.Downtime})
		case FaultRequestRetried:
			// The retried attempt starts from scratch: reset the progress
			// cursor so its first token re-emits FirstToken (violation flags
			// survive — a deadline missed once stays missed).
			if st := s.track[a.Req.ID]; st != nil {
				st.lastLen = 0
			}
			s.emit(RequestRetried{EventMeta: s.meta(a.Time), Req: a.Req, Instance: a.Instance, Attempt: a.Attempt})
		case FaultRequestHedged:
			s.emit(RequestHedged{EventMeta: s.meta(a.Time), Req: a.Req, Instance: a.Instance})
		}
	}
}

// tickAutoscaler lets the autoscaler act at an iteration boundary and emits
// the actions it took into the event stream.
func (s *Server) tickAutoscaler() {
	as := s.opts.Autoscaler
	if as == nil {
		return
	}
	for _, a := range as.Tick(s.now, &s.queue) {
		if a.Up {
			s.emit(ScaleUp{EventMeta: s.meta(s.now), Action: a})
		} else {
			s.emit(ScaleDown{EventMeta: s.meta(s.now), Action: a})
		}
	}
}

// tickAdaptive lets the admission/speculation controller actuate at an
// iteration boundary.
func (s *Server) tickAdaptive() {
	if ac := s.opts.Adaptive; ac != nil {
		ac.Tick(s.now)
	}
}

// noteRejected derives the RequestRejected event for a gated arrival; the
// request never reaches a serving pool.
func (s *Server) noteRejected(r *request.Request, reason string) {
	if !s.tracking {
		return
	}
	s.bumpNow(r.ArrivalTime)
	s.maybeSnapshots()
	s.emit(RequestRejected{EventMeta: s.meta(r.ArrivalTime), Req: r, Reason: reason})
}

// noteDegraded derives the RequestDegraded event for an arrival admitted at
// reduced service; the controller has already applied the degradation, and
// the RequestAdmitted event for the same request follows.
func (s *Server) noteDegraded(r *request.Request, reason string) {
	if !s.tracking {
		return
	}
	s.bumpNow(r.ArrivalTime)
	s.maybeSnapshots()
	s.emit(RequestDegraded{
		EventMeta: s.meta(r.ArrivalTime), Req: r,
		From: r.DegradedFrom, To: r.Category, Reason: reason,
	})
}

// emit delivers one event to every observer in registration order.
func (s *Server) emit(ev Event) {
	for _, o := range s.observers {
		o.OnEvent(ev)
	}
	s.events++
}

// meta stamps the next event: lifecycle time t, dense delivery sequence.
func (s *Server) meta(t float64) EventMeta {
	m := EventMeta{Time: t, Seq: s.seq}
	s.seq++
	return m
}

// bumpNow advances the driver's processed-time high-water mark, which paces
// periodic snapshots.
func (s *Server) bumpNow(t float64) {
	if t > s.now {
		s.now = t
	}
}

// noteAdmitted derives the RequestAdmitted event for an arrival dispatched at
// time at (see dispatchHeld).
func (s *Server) noteAdmitted(r *request.Request, in *Instance, at float64) {
	if !s.tracking {
		return
	}
	s.bumpNow(at)
	s.maybeSnapshots()
	s.track[r.ID] = &reqTrack{}
	if s.rolling != nil {
		s.rolling.Arrived(r)
	}
	s.emit(RequestAdmitted{EventMeta: s.meta(at), Req: r, Instance: in.id})
}

// noteIteration derives per-request lifecycle events after in executed one
// iteration: token progress and SLO-violation certainty for resident
// requests, then retirement events for requests that finished.
func (s *Server) noteIteration(in *Instance) {
	if !s.tracking {
		return
	}
	now := in.clock
	s.bumpNow(now)
	pool := in.sys.Pool()
	// Queued requests can only expire their TTFT deadline.
	for _, r := range pool.Waiting() {
		s.checkTTFTDeadline(r, in, now)
	}
	for _, r := range pool.Running() {
		if st := s.track[r.ID]; st != nil {
			s.noteProgress(r, st, in, now)
		}
	}
	done := pool.Done()
	for _, r := range done[s.doneSeen[in.id]:] {
		st := s.track[r.ID]
		if st == nil {
			continue
		}
		s.noteProgress(r, st, in, now)
		if !st.violTPOT && !r.AttainedSLO() {
			st.violTPOT = true
			s.emit(SLOViolated{EventMeta: s.meta(r.DoneTime), Req: r, Instance: in.id, Kind: ViolationTPOT})
		}
		s.emit(RequestFinished{
			EventMeta: s.meta(r.DoneTime), Req: r, Instance: in.id,
			Attained: r.AttainedSLO(), TTFTAttained: r.AttainedTTFT(),
			TPOT: r.AvgTPOT(r.DoneTime),
		})
		if s.rolling != nil {
			s.rolling.Finished(r)
		}
		delete(s.track, r.ID)
	}
	s.doneSeen[in.id] = len(done)
	s.maybeSnapshots()
}

// noteProgress emits token-progress and violation-certainty events for one
// resident (or just-finished) request.
func (s *Server) noteProgress(r *request.Request, st *reqTrack, in *Instance, now float64) {
	if n := r.OutputLen(); n > st.lastLen {
		if st.lastLen == 0 {
			if r.TTFTSLO > 0 && !st.violTTFT && r.TTFT() > r.TTFTSLO {
				st.violTTFT = true
				s.emit(SLOViolated{EventMeta: s.meta(r.FirstTokenTime), Req: r, Instance: in.id, Kind: ViolationTTFT})
			}
			s.emit(FirstToken{EventMeta: s.meta(r.FirstTokenTime), Req: r, Instance: in.id, TTFT: r.TTFT()})
		}
		s.emit(TokensCommitted{EventMeta: s.meta(now), Req: r, Instance: in.id, Tokens: n - st.lastLen, Total: n})
		st.lastLen = n
	} else {
		s.checkTTFTDeadline(r, in, now)
	}
	// TPOT violation is certain once even an instant commit of every
	// remaining token would leave the average above target.
	if !st.violTPOT && r.Phase != request.Done && r.FirstDecodeTime >= 0 &&
		(now-r.FirstDecodeTime)/float64(r.MaxNewTokens) > r.TPOTSLO {
		st.violTPOT = true
		s.emit(SLOViolated{EventMeta: s.meta(now), Req: r, Instance: in.id, Kind: ViolationTPOT})
	}
}

// checkTTFTDeadline emits the TTFT violation the moment the deadline passes
// with no token committed.
func (s *Server) checkTTFTDeadline(r *request.Request, in *Instance, now float64) {
	st := s.track[r.ID]
	if st == nil || st.violTTFT || r.TTFTSLO <= 0 || r.FirstTokenTime >= 0 {
		return
	}
	if now > r.ArrivalTime+r.TTFTSLO {
		st.violTTFT = true
		s.emit(SLOViolated{EventMeta: s.meta(now), Req: r, Instance: in.id, Kind: ViolationTTFT})
	}
}

// maybeSnapshots emits every snapshot whose grid instant the processed-time
// high-water mark has passed.
func (s *Server) maybeSnapshots() {
	if s.rolling == nil {
		return
	}
	for s.now >= s.nextSnap {
		s.emitSnapshot(s.nextSnap, false)
		s.nextSnap += s.opts.SnapshotEvery
	}
}

// emitSnapshot materializes the rolling view with instantaneous occupancy.
func (s *Server) emitSnapshot(t float64, final bool) {
	queued, running := 0, 0
	for _, in := range s.insts {
		p := in.sys.Pool()
		queued += p.NumWaiting()
		running += p.NumRunning()
	}
	s.emit(Snapshot{EventMeta: s.meta(t), Stats: s.rolling.Snapshot(t, queued, running), Final: final})
}
