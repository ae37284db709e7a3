package experiments

import (
	"fmt"
	"math"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// RunSpec describes one run: a serving configuration, a workload, the
// mid-run controls and the observers. Lower builds everything afresh (a
// closed trace is cloned, an open-loop stream is generated from Seed), so
// a spec runs any number of times to identical results; only a session
// workload and stateful observers are single-use. Every run in the
// repository, from a figure cell to an adaserve-sim invocation, is a
// RunSpec.
type RunSpec struct {
	// Kind is the serving system every replica runs; Setup is its model.
	Kind  SystemKind
	Setup ModelSetup
	// Seed drives engine randomness, the generated workloads and the fault
	// schedule.
	Seed uint64
	// Duration is the open-loop arrival window, the fault schedule's
	// horizon and the time base of the controllers' cadence, in seconds.
	Duration float64
	// Build tunes every replica's construction; Seed overrides its Seed.
	Build BuildOptions

	// Roles lays out a fleet, one replica per role (all mixed: colocated).
	// Empty serves with a single system and no cluster.
	Roles []cluster.Role
	// Router names the fleet's router policy.
	Router string
	// InitialActive, when positive, makes the fleet elastic: it starts
	// with this many active replicas, and provisioning one takes
	// AutoscaleColdStart(Duration). 0 keeps the fleet static.
	InitialActive int
	// Controls are the mid-run controllers.
	Controls Controls

	// The workload is exactly one of the next four fields.
	//
	// Requests is a closed trace, replayed until every request is done.
	Requests []*request.Request
	// Trace is a recorded or compiled trace, replayed likewise.
	Trace *trace.Trace
	// Open is an open-loop arrival stream over Duration.
	Open *OpenLoad
	// Sessions is a closed-loop workload, such as NewSessions.
	Sessions Sessions

	// Observers subscribe to the event stream after the controllers, in
	// order.
	Observers []serve.Observer
	// SnapshotEvery emits a rolling-metrics Snapshot every so many
	// simulated seconds, plus a final one (0: none); Window is the
	// snapshots' trailing window (0: serve.DefaultSnapshotWindow).
	SnapshotEvery, Window float64
}

// Sessions is a closed-loop workload, whose arrivals react to serving
// speed: its opening requests are submitted up front, and each follow-up
// when the request it answers finishes (nil: no follow-up).
// *workload.Sessions is one.
type Sessions interface {
	InitialRequests() []*request.Request
	FollowUp(done *request.Request, now float64) *request.Request
}

// OpenLoad is an open-loop arrival stream: requests of Mix arrive at the
// named rate profile's shape around a mean of RPS. The generator is seeded
// by Hash2(Seed, Salt) and the thinning RNG by Hash2(Seed, 0x7a), so specs
// with equal Seed, Salt and load face the same requests at the same
// instants.
type OpenLoad struct {
	Profile string
	RPS     float64
	// Mix is the category mix (zero: workload.DefaultMix).
	Mix workload.Mix
	// SLOScale scales the most urgent category's SLO (0: 1).
	SLOScale float64
	Salt     uint64
}

// Armed is a lowered RunSpec: the built backend and source, and a server
// with the spec's controllers and observers armed on it. It runs once.
type Armed struct {
	server  *serve.Server
	backend serve.Backend
	src     serve.Source
	// cl is the fleet (nil for a single system); sys the single system.
	cl  *cluster.Cluster
	sys sched.System
	// reqs is the cloned closed trace the summary covers (nil: every
	// served request).
	reqs []*request.Request
	// followUp submits session follow-up turns; submitErr is its first
	// failure.
	followUp  serve.Observer
	submitErr error

	policy string
	inj    *faults.Injector
	ada    *adaptive.Controller
}

// Outcome is a finished run.
type Outcome struct {
	// Result is the driver's run result.
	*serve.Result
	// Summary is the run's summary with the controllers' rollups attached.
	// A single system's carries only Aggregate and Admission.
	Summary *metrics.ClusterSummary
	// Fleet is the fleet's result (nil for a single system).
	Fleet *cluster.Result
}

// Lower validates the spec and builds its source, backend, controllers and
// server.
func (s RunSpec) Lower() (*Armed, error) {
	if !finiteNonNegative(s.Duration) {
		return nil, fmt.Errorf("experiments: run duration %g must be finite and non-negative", s.Duration)
	}
	if !finiteNonNegative(s.SnapshotEvery) || !finiteNonNegative(s.Window) {
		return nil, fmt.Errorf("experiments: snapshot interval %g and window %g must be finite and non-negative", s.SnapshotEvery, s.Window)
	}
	a := &Armed{}
	var err error
	if a.src, err = s.source(a); err != nil {
		return nil, err
	}
	build := s.Build
	build.Seed = s.Seed
	if len(s.Roles) == 0 {
		if a.sys, err = Build(s.Kind, s.Setup, build); err != nil {
			return nil, err
		}
		a.backend = serve.SingleSystem(a.sys)
	} else {
		var elastic *cluster.ElasticOptions
		if s.InitialActive > 0 {
			elastic = &cluster.ElasticOptions{ColdStart: AutoscaleColdStart(s.Duration), InitialActive: s.InitialActive}
		}
		if a.cl, err = buildCluster(s.Kind, s.Setup, s.Roles, s.Router, elastic, build); err != nil {
			return nil, err
		}
		a.backend = a.cl
	}
	if err := s.Controls.arm(a, s.Seed, s.Duration, serve.Options{SnapshotEvery: s.SnapshotEvery, Window: s.Window}); err != nil {
		return nil, err
	}
	for _, o := range s.Observers {
		a.server.Subscribe(o)
	}
	return a, nil
}

// finiteNonNegative reports whether v is a finite, non-negative number.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// source builds the spec's one workload source.
func (s RunSpec) source(a *Armed) (serve.Source, error) {
	set := 0
	for _, on := range []bool{s.Requests != nil, s.Trace != nil, s.Open != nil, s.Sessions != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("experiments: a run needs exactly one workload (requests, trace, open loop or sessions); %d set", set)
	}
	switch {
	case s.Requests != nil:
		a.reqs = request.CloneAll(s.Requests)
		return serve.NewTraceSource(a.reqs)
	case s.Trace != nil:
		return trace.NewSource(s.Trace)
	case s.Open != nil:
		o := s.Open
		rate, maxRate, err := workload.RateProfile(o.Profile, o.RPS, s.Duration)
		if err != nil {
			return nil, err
		}
		mix := o.Mix
		if mix == (workload.Mix{}) {
			mix = workload.DefaultMix
		}
		gen, err := NewGenerator(s.Setup, mix, o.SLOScale, mathutil.Hash2(s.Seed, o.Salt))
		if err != nil {
			return nil, err
		}
		return serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(s.Seed, 0x7a)), rate, maxRate, s.Duration)
	}
	src := serve.NewSubmitSource()
	for _, r := range s.Sessions.InitialRequests() {
		if err := src.Submit(r); err != nil {
			return nil, err
		}
	}
	a.followUp = serve.ObserverFunc(func(ev serve.Event) {
		e, ok := ev.(serve.RequestFinished)
		if !ok {
			return
		}
		if next := s.Sessions.FollowUp(e.Req, e.Time); next != nil {
			if err := src.Submit(next); err != nil && a.submitErr == nil {
				a.submitErr = err
			}
		}
	})
	return src, nil
}

// Backend returns the built single system or fleet.
func (a *Armed) Backend() serve.Backend { return a.backend }

// Subscribe adds an observer after the spec's own: for observers that need
// the built backend.
func (a *Armed) Subscribe(o serve.Observer) { a.server.Subscribe(o) }

// Run drives the source to completion and summarizes the run. A fleet's
// summary comes from cluster.Cluster.Results (over the closed trace in
// trace order, else over every dispatched request); a single system's from
// metrics.Summarize over the closed trace, else over every finished
// request.
func (a *Armed) Run() (*Outcome, error) {
	if a.followUp != nil {
		a.server.Subscribe(a.followUp)
	}
	rr, err := a.server.Run(a.src)
	if err != nil {
		return nil, err
	}
	if a.submitErr != nil {
		return nil, a.submitErr
	}
	out := &Outcome{Result: rr}
	if a.cl != nil {
		out.Fleet = a.cl.Results(rr, a.reqs)
		out.Summary = out.Fleet.Summary
		if a.policy != "" {
			out.Summary.Autoscale.Policy = a.policy
		}
		if a.inj != nil {
			sum := a.inj.Summary(rr.EndTime)
			sum.Dropped += rr.Unplaced
			out.Summary.Faults = &sum
		}
	} else {
		reqs := a.reqs
		if reqs == nil {
			reqs = a.sys.Pool().Done()
		}
		out.Summary = &metrics.ClusterSummary{Aggregate: metrics.Summarize(a.sys.Name(), reqs, rr.Breakdown)}
	}
	if a.ada != nil {
		sum := a.ada.Summary()
		out.Summary.Admission = &sum
	}
	return out, nil
}

// Run lowers the spec and runs it.
func (s RunSpec) Run() (*Outcome, error) {
	a, err := s.Lower()
	if err != nil {
		return nil, err
	}
	return a.Run()
}

// CheckPositive is the command-line check on a numeric flag: it fails with
// a one-line error unless v is positive and finite.
func CheckPositive(flag, noun string, v float64) error {
	if v > 0 && !math.IsInf(v, 1) {
		return nil
	}
	return fmt.Errorf("-%s %g: need a finite, positive %s", flag, v, noun)
}
