package main

import (
	"fmt"
	"math"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// workloadSpec is one benchmark workload. A seed stands for `inputs`
// independent inputs of the same shape (see inputSeed), and one pass of the
// measurement simulates each of them once: the work in a pass is then an
// average over several draws of the traffic, so its figures move little
// from one seed to the next. prepare makes one input from its own seed
// (untimed) and returns the set-up step, which builds a fresh, ready-to-run
// simulation over it each time it is called (timed as setup_s). The
// simulator sees only the generated requests.
type workloadSpec struct {
	name    string
	why     string
	inputs  int
	prepare func(seed uint64, scale float64) (setupFunc, error)
}

// inputSeed is the seed of input k of a workload at the benchmark's seed.
func inputSeed(seed uint64, k int) uint64 { return mathutil.Hash2(seed, 0x1a9b7+uint64(k)) }

type setupFunc func(t *tracer) (*sim, error)

// sim is one built, not yet run, simulation.
type sim struct {
	srv *serve.Server
	src serve.Source
	cl  *cluster.Cluster
	// systems are the replicas' unwrapped serving systems.
	systems []sched.System
	// offered counts the requests the workload generated for the run.
	offered func() int
	// finish attaches the controllers' summaries and reports any error an
	// observer deferred; nil when the workload has neither.
	finish func(sum *metrics.ClusterSummary, end float64) error
	// lossy marks a workload whose faults may leave requests unfinished.
	lossy bool
}

// outcome is what one run produced.
type outcome struct {
	rr      *serve.Result
	sum     *metrics.ClusterSummary
	offered int
	systems []sched.System
}

// run drives the simulation to completion and assembles its results.
func (s *sim) run(t *tracer) (*outcome, error) {
	t.begin(seamRun)
	rr, err := s.srv.Run(s.src)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin(seamResults)
	res := s.cl.Results(rr, nil)
	t.end()
	if s.finish != nil {
		if err := s.finish(res.Summary, rr.EndTime); err != nil {
			return nil, err
		}
	}
	return &outcome{rr: rr, sum: res.Summary, offered: s.offered(), systems: s.systems}, nil
}

// model is the paper's Table 1 row every workload serves.
var model = experiments.Llama70B()

// workloads are the benchmark's input sets, each chosen to load a
// different layer of the simulator (see README.md).
var workloads = []workloadSpec{
	{
		name:    "spec-decode",
		why:     "one AdaServe replica replaying a real-shape trace: the speculate-select-verify path (lm, toktree, core) takes most of the CPU",
		inputs:  5,
		prepare: prepareSpecDecode,
	},
	{
		name:    "wide-fleet",
		why:     "128 vLLM replicas behind least-loaded routing: the serving loop's per-event instance scan and the router's fleet scan, with no speculation at all",
		inputs:  3,
		prepare: prepareWideFleet,
	},
	{
		name:    "prefix-sessions",
		why:     "closed-loop multi-turn sessions on 8 prefix-caching replicas: kvcache hash-chain matching, MarkComputed sweeps and affinity probes",
		inputs:  3,
		prepare: preparePrefixSessions,
	},
	{
		name:    "chaos-observed",
		why:     "elastic fleet under crash and straggler faults with autoscaling, admission and observers: event derivation and every control hook",
		inputs:  8,
		prepare: prepareChaosObserved,
	},
}

func findWorkload(name string) (*workloadSpec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a size for tests and warm-ups, never below min.
func scaled(v, scale, min float64) float64 { return math.Max(min, v*scale) }

// buildSystems builds n replicas of one system kind, seeded per replica as
// experiments.BuildCluster seeds them, and wraps each for the tracer.
func buildSystems(kind experiments.SystemKind, n int, seed uint64, opts experiments.BuildOptions, t *tracer) (raw, wrapped []sched.System, err error) {
	raw = make([]sched.System, n)
	wrapped = make([]sched.System, n)
	for i := range raw {
		o := opts
		o.Seed = mathutil.Hash2(seed, 0xc1a0+uint64(i))
		if raw[i], err = experiments.Build(kind, model, o); err != nil {
			return nil, nil, fmt.Errorf("replica %d: %w", i, err)
		}
		if wrapped[i], err = t.system(raw[i]); err != nil {
			return nil, nil, err
		}
	}
	return raw, wrapped, nil
}

// openLoop is the constant- or profile-rate arrival stream the open-loop
// workloads consume; the generator draws each request lazily inside Peek.
func openLoop(profile string, meanRPS, duration float64, seed uint64) (*serve.OpenLoop, error) {
	rate, maxRate, err := workload.RateProfile(profile, meanRPS, duration)
	if err != nil {
		return nil, err
	}
	gen, err := experiments.NewGenerator(model, workload.DefaultMix, 1.0, mathutil.Hash2(seed, 0x51e))
	if err != nil {
		return nil, err
	}
	return serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(seed, 0x7a)), rate, maxRate, duration)
}

// Sizes of each workload at -scale 1.
const (
	specDecodeRPS      = 3.8
	specDecodeDuration = 600.0

	wideFleetReplicas   = 128
	wideFleetPerReplica = 0.5
	wideFleetDuration   = 60.0

	prefixReplicas     = 8
	prefixTenants      = 240
	prefixTurns        = 8
	prefixSystemPrompt = 1024
	prefixHostBlocks   = 2048

	chaosCapacity = 4
	chaosActive   = 3
	chaosRPS      = 7.6
	chaosDuration = 200.0
)

func prepareSpecDecode(seed uint64, scale float64) (setupFunc, error) {
	gen, err := experiments.NewGenerator(model, workload.DefaultMix, 1.0, mathutil.Hash2(seed, 0x77a1))
	if err != nil {
		return nil, err
	}
	duration := scaled(specDecodeDuration, scale, 10)
	reqs := gen.FromTimestamps(workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(seed, 0x7071)), specDecodeRPS, duration))
	return func(t *tracer) (*sim, error) {
		raw, systems, err := buildSystems(experiments.SysAdaServe, 1, seed, experiments.BuildOptions{}, t)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(systems, t.router(cluster.NewRoundRobin()))
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(t.backend(cl), serve.Options{})
		if err != nil {
			return nil, err
		}
		src, err := serve.NewTraceSource(request.CloneAll(reqs))
		if err != nil {
			return nil, err
		}
		n := len(reqs)
		return &sim{srv: srv, src: t.source(src), cl: cl, systems: raw, offered: func() int { return n }}, nil
	}, nil
}

func prepareWideFleet(seed uint64, scale float64) (setupFunc, error) {
	duration := scaled(wideFleetDuration, scale, 0.2)
	return func(t *tracer) (*sim, error) {
		raw, systems, err := buildSystems(experiments.SysVLLM, wideFleetReplicas, seed, experiments.BuildOptions{}, t)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(systems, t.router(cluster.LeastLoaded{}))
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(t.backend(cl), serve.Options{})
		if err != nil {
			return nil, err
		}
		src, err := openLoop("constant", wideFleetReplicas*wideFleetPerReplica, duration, seed)
		if err != nil {
			return nil, err
		}
		return &sim{srv: srv, src: t.source(src), cl: cl, systems: raw, offered: src.Generated}, nil
	}, nil
}

func preparePrefixSessions(seed uint64, scale float64) (setupFunc, error) {
	tenants := int(scaled(prefixTenants, scale, 4))
	return func(t *tracer) (*sim, error) {
		raw, systems, err := buildSystems(experiments.SysAdaServe, prefixReplicas, seed,
			experiments.BuildOptions{Prefix: true, PrefixHostBlocks: prefixHostBlocks}, t)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.New(systems, t.router(cluster.PrefixAffinity{}))
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(t.backend(cl), serve.Options{})
		if err != nil {
			return nil, err
		}
		sessions, err := workload.NewSessions(workload.SessionsConfig{
			Seed:            mathutil.Hash2(seed, 0x5e5510),
			Tenants:         tenants,
			SystemPromptLen: prefixSystemPrompt,
			Turns:           prefixTurns,
			Category:        request.Chat,
			BaselineLatency: model.BaselineLatency(),
			ArrivalSpacing:  0.25,
			ThinkTime:       0.5,
		})
		if err != nil {
			return nil, err
		}
		src := serve.NewSubmitSource()
		for _, r := range sessions.InitialRequests() {
			if err := src.Submit(r); err != nil {
				return nil, err
			}
		}
		// Closed loop: each tenant's next turn is submitted when the
		// previous one finishes, so it is workload-layer work.
		var submitErr error
		srv.Subscribe(t.observer(serve.ObserverFunc(func(ev serve.Event) {
			e, ok := ev.(serve.RequestFinished)
			if !ok {
				return
			}
			if next := sessions.FollowUp(e.Req, e.Time); next != nil {
				if err := src.Submit(next); err != nil && submitErr == nil {
					submitErr = err
				}
			}
		}), seamSource))
		return &sim{
			srv: srv, src: t.source(src), cl: cl, systems: raw, offered: sessions.Issued,
			finish: func(*metrics.ClusterSummary, float64) error { return submitErr },
		}, nil
	}, nil
}

func prepareChaosObserved(seed uint64, scale float64) (setupFunc, error) {
	d := scaled(chaosDuration, scale, 20)
	spec, err := faults.ParseSpec(fmt.Sprintf("crash@%g+%g:r0; slow@%g+%g:r1:x4", d/4, d/6, d/2, d/4))
	if err != nil {
		return nil, err
	}
	acfg, err := experiments.AdaptiveConfig("adaptive+admission", d)
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (*sim, error) {
		raw, systems, err := buildSystems(experiments.SysAdaServe, chaosCapacity, seed, experiments.BuildOptions{}, t)
		if err != nil {
			return nil, err
		}
		router, err := cluster.NewRouter(experiments.FaultRouter)
		if err != nil {
			return nil, err
		}
		cl, err := cluster.NewElastic(systems, make([]cluster.Role, chaosCapacity), t.router(router),
			gpu.KVTransfer{Model: model.Target, Link: experiments.DisaggLink},
			cluster.ElasticOptions{ColdStart: experiments.AutoscaleColdStart(d), InitialActive: chaosActive})
		if err != nil {
			return nil, err
		}
		policy, err := autoscale.NewPolicy("rate-prop")
		if err != nil {
			return nil, err
		}
		scaler, err := autoscale.New(cl, policy, autoscale.Options{
			Interval: experiments.AutoscaleInterval(d),
			Window:   experiments.AutoscaleWindow(d),
		})
		if err != nil {
			return nil, err
		}
		inj, err := faults.New(cl, spec, faults.Options{Seed: seed, Horizon: d, Recovery: faults.RecoveryRetryHedge})
		if err != nil {
			return nil, err
		}
		ctrl, err := adaptive.New(cl, *acfg)
		if err != nil {
			return nil, err
		}
		srv, err := serve.NewServer(t.backend(cl), serve.Options{
			SnapshotEvery: 1,
			Autoscaler:    t.autoscaler(scaler),
			Faults:        t.faults(inj),
			Adaptive:      t.admission(ctrl),
		})
		if err != nil {
			return nil, err
		}
		srv.Subscribe(t.observer(obs.NewSpanRecorder(), seamObs))
		srv.Subscribe(t.observer(obs.NewMetricsExporter(), seamObs))
		src, err := openLoop("spike", chaosRPS, d, seed)
		if err != nil {
			return nil, err
		}
		return &sim{
			srv: srv, src: t.source(src), cl: cl, systems: raw, offered: src.Generated, lossy: true,
			finish: func(sum *metrics.ClusterSummary, end float64) error {
				fs := inj.Summary(end)
				sum.Faults = &fs
				as := ctrl.Summary()
				sum.Admission = &as
				sum.Autoscale.Policy = policy.Name()
				return nil
			},
		}, nil
	}, nil
}
