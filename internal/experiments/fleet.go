package experiments

import (
	"fmt"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// DisaggLink is the interconnect every built fleet prices KV handoffs over:
// a cross-node RDMA fabric, the link real disaggregated deployments migrate
// KV over. Only the prefill-to-decode handoff and elastic drain migrations
// use it, so a static colocated fleet never does.
var DisaggLink = gpu.RDMA400

// BuildCluster assembles a fleet of the given system kind behind the named
// router: one replica per role (an all-mixed role list is a colocated
// fleet), each with its own engine, KV cache and pool and an admission mode
// matching its role. Per-replica engine randomness derives from the base
// seed and the replica index alone, so a replica's verification outcomes do
// not depend on the router, the roles around it or whether the fleet is
// elastic. A non-nil elastic makes the fleet resizable by an autoscaler.
func BuildCluster(kind SystemKind, setup ModelSetup, roles []cluster.Role, routerName string,
	elastic *cluster.ElasticOptions, opts BuildOptions) (*cluster.Cluster, error) {
	if len(roles) == 0 {
		return nil, fmt.Errorf("experiments: no replicas")
	}
	router, err := cluster.NewRouter(routerName)
	if err != nil {
		return nil, err
	}
	systems := make([]sched.System, len(roles))
	for i, role := range roles {
		o := opts
		o.Seed = mathutil.Hash2(opts.Seed, 0xc1a0+uint64(i))
		sys, err := build(kind, setup, o, role.Mode())
		if err != nil {
			return nil, fmt.Errorf("experiments: replica %d: %w", i, err)
		}
		systems[i] = sys
	}
	transfer := gpu.KVTransfer{Model: setup.Target, Link: DisaggLink}
	if elastic != nil {
		return cluster.NewElastic(systems, roles, router, transfer, *elastic)
	}
	return cluster.NewWithRoles(systems, roles, router, transfer)
}

// Controls are the mid-run controllers of one fleet run. The zero value
// arms none.
type Controls struct {
	// Policy names the autoscale policy resizing an elastic fleet; "" or
	// "static" arms none (a "static" label is still stamped on the
	// summary, as the autoscale sweep's baseline row).
	Policy string
	// Adaptive configures speculation tuning and the overload admission
	// gate (nil: neither).
	Adaptive *adaptive.Config
	// Faults is the failure schedule replayed against the fleet (empty:
	// none); Recovery is the response to it.
	Faults   faults.Spec
	Recovery faults.Recovery
}

// Armed is a server with Controls' controllers armed on its backend.
type Armed struct {
	*serve.Server
	cl     *cluster.Cluster
	policy string
	inj    *faults.Injector
	ada    *adaptive.Controller
}

// Arm builds the controllers on the backend, in the order fault injector,
// autoscaler, adaptive controller, and the server that drives them.
// Faults and autoscaling need a *cluster.Cluster backend. seed and duration
// set the fault schedule's randomness and horizon and the controllers'
// duration-proportional cadence; opts carries the caller's own driver
// settings, with the controller hooks filled in here.
func (c Controls) Arm(b serve.Backend, seed uint64, duration float64, opts serve.Options) (*Armed, error) {
	cl, _ := b.(*cluster.Cluster)
	a := &Armed{cl: cl, policy: c.Policy}
	if !c.Faults.Empty() {
		inj, err := faults.New(cl, c.Faults, faults.Options{Seed: seed, Horizon: duration, Recovery: c.Recovery})
		if err != nil {
			return nil, err
		}
		a.inj, opts.Faults = inj, inj
	}
	if c.Policy != "" && c.Policy != "static" {
		policy, err := autoscale.NewPolicy(c.Policy)
		if err != nil {
			return nil, err
		}
		ctrl, err := autoscale.New(cl, policy, autoscale.Options{
			Interval: AutoscaleInterval(duration),
			Window:   AutoscaleWindow(duration),
		})
		if err != nil {
			return nil, err
		}
		opts.Autoscaler = ctrl
	}
	if c.Adaptive != nil {
		ada, err := adaptive.New(b, *c.Adaptive)
		if err != nil {
			return nil, err
		}
		a.ada, opts.Adaptive = ada, ada
	}
	srv, err := serve.NewServer(b, opts)
	if err != nil {
		return nil, err
	}
	a.Server = srv
	return a, nil
}

// Admission returns the admission gate's rollup (nil when no adaptive
// controller ran).
func (a *Armed) Admission() *metrics.AdmissionSummary {
	if a.ada == nil {
		return nil
	}
	sum := a.ada.Summary()
	return &sum
}

// Results assembles a finished cluster run's result (see
// cluster.Cluster.Results for reqs) with the controllers' rollups attached:
// the autoscale policy, the admission summary and the fault summary.
func (a *Armed) Results(rr *serve.Result, reqs []*request.Request) *cluster.Result {
	res := a.cl.Results(rr, reqs)
	if a.policy != "" {
		res.Summary.Autoscale.Policy = a.policy
	}
	res.Summary.Admission = a.Admission()
	if a.inj != nil {
		sum := a.inj.Summary(rr.EndTime)
		res.Summary.Faults = &sum
	}
	return res
}

// run arms c on a built fleet, drives it over src (observers subscribe
// after the controllers) and returns the summary with the controllers'
// rollups attached.
func (c Controls) run(cl *cluster.Cluster, src serve.Source, opts RunOptions, observers ...serve.Observer) (*metrics.ClusterSummary, error) {
	a, err := c.Arm(cl, opts.Seed, opts.Duration, serve.Options{})
	if err != nil {
		return nil, err
	}
	for _, o := range observers {
		a.Subscribe(o)
	}
	rr, err := a.Run(src)
	if err != nil {
		return nil, err
	}
	return a.Results(rr, nil).Summary, nil
}

// replay runs a closed trace through a static AdaServe fleet.
func replay(setup ModelSetup, roles []cluster.Role, routerName string, reqs []*request.Request, seed uint64) (*metrics.ClusterSummary, error) {
	cl, err := BuildCluster(SysAdaServe, setup, roles, routerName, nil, BuildOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	res, err := cl.Run(request.CloneAll(reqs))
	if err != nil {
		return nil, err
	}
	return res.Summary, nil
}

// openLoop builds a sweep's open-loop arrival stream: the default mix at
// the profile's rate shape around mean rps over the run. The workload is
// seeded per sweep (salt) and the thinning RNG as in adaserve-sim, so every
// cell of one sweep and profile faces the same requests at the same
// instants.
func openLoop(setup ModelSetup, profile string, mean float64, salt uint64, opts RunOptions) (serve.Source, error) {
	rate, maxRate, err := workload.RateProfile(profile, mean, opts.Duration)
	if err != nil {
		return nil, err
	}
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(opts.Seed, salt))
	if err != nil {
		return nil, err
	}
	return serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(opts.Seed, 0x7a)), rate, maxRate, opts.Duration)
}
