package experiments

import (
	"fmt"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// DisaggLink is the interconnect every built fleet prices KV handoffs over:
// a cross-node RDMA fabric, the link real disaggregated deployments migrate
// KV over. Only the prefill-to-decode handoff and elastic drain migrations
// use it, so a static colocated fleet never does.
var DisaggLink = gpu.RDMA400

// buildCluster assembles a fleet of the given system kind behind the named
// router: one replica per role (an all-mixed role list is a colocated
// fleet), each with its own engine, KV cache and pool and an admission mode
// matching its role. Per-replica engine randomness derives from the base
// seed and the replica index alone, so a replica's verification outcomes do
// not depend on the router, the roles around it or whether the fleet is
// elastic. A non-nil elastic makes the fleet resizable by an autoscaler.
func buildCluster(kind SystemKind, setup ModelSetup, roles []cluster.Role, routerName string,
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

// arm builds the controllers on a's backend, in the order fault injector,
// autoscaler, adaptive controller, and the server that drives them. Faults
// and autoscaling need a *cluster.Cluster backend. seed and duration set
// the fault schedule's randomness and horizon and the controllers'
// duration-proportional cadence; opts carries the run's own driver
// settings, with the controller hooks filled in here.
func (c Controls) arm(a *Armed, seed uint64, duration float64, opts serve.Options) error {
	a.policy = c.Policy
	if !c.Faults.Empty() {
		inj, err := faults.New(a.cl, c.Faults, faults.Options{Seed: seed, Horizon: duration, Recovery: c.Recovery})
		if err != nil {
			return err
		}
		a.inj, opts.Faults = inj, inj
	}
	if c.Policy != "" && c.Policy != "static" {
		policy, err := autoscale.NewPolicy(c.Policy)
		if err != nil {
			return err
		}
		ctrl, err := autoscale.New(a.cl, policy, autoscale.Options{
			Interval: AutoscaleInterval(duration),
			Window:   AutoscaleWindow(duration),
		})
		if err != nil {
			return err
		}
		opts.Autoscaler = ctrl
	}
	if c.Adaptive != nil {
		ada, err := adaptive.New(a.backend, *c.Adaptive)
		if err != nil {
			return err
		}
		a.ada, opts.Adaptive = ada, ada
	}
	srv, err := serve.NewServer(a.backend, opts)
	if err != nil {
		return err
	}
	a.server = srv
	return nil
}
