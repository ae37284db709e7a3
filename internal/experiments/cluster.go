package experiments

import (
	"strconv"

	"adaserve/internal/cluster"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// clusterReplicaCounts are the cluster sizes the scaling experiment sweeps.
func clusterReplicaCounts() []int { return []int{1, 2, 3, 4, 8} }

// ClusterPerReplicaRPS returns the fixed per-replica offered load of the
// scaling experiment: the midpoint of the setup's Figure 8 RPS sweep, a
// contended-but-serviceable operating point where routing quality shows.
func ClusterPerReplicaRPS(setup ModelSetup) float64 {
	sweep := rpsSweepsForSetup(setup)
	return sweep[len(sweep)/2]
}

// ClusterScaling runs the replica-scaling experiment: AdaServe clusters of
// 1, 2, 3, 4 and 8 replicas under each router policy at fixed per-replica
// load (the trace rate scales with the replica count, so every
// configuration sees the same offered load per replica). All
// configurations of one replica count replay the identical trace;
// single-replica rows are a sanity anchor where every router must agree,
// and two-replica clusters are where routing matters least (the SLO-aware
// island needs n >= 3, so at n = 2 it degrades to per-class balancing,
// statistically equivalent to round-robin on homogeneous replicas).
func ClusterScaling(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	perReplica := ClusterPerReplicaRPS(setup)
	traces := map[int][]*request.Request{}
	var cells []Cell
	for _, n := range clusterReplicaCounts() {
		reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, perReplica*float64(n), opts.Duration, opts.Seed)
		if err != nil {
			return nil, err
		}
		traces[n] = reqs
		for _, routerName := range cluster.RouterNames() {
			cells = append(cells, Cell{replicas: n, router: routerName})
		}
	}
	return runGrid("cluster", opts, cells, func(c Cell) (RunSpec, error) {
		return RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
			Roles: make([]cluster.Role, c.replicas), Router: c.router, Requests: traces[c.replicas]}, nil
	})
}

// ClusterTable prints the replica-scaling experiment: attainment, goodput
// and request imbalance, one row per replica count and one column per
// router.
var ClusterTable = Table[Cell]{
	row: axis[Cell]{name: "replicas", width: -10,
		label: func(c Cell) string { return strconv.Itoa(c.replicas) },
		order: func(c Cell) float64 { return float64(c.replicas) }},
	cols:    routerCols,
	columns: sumCols(0, "%.2f", "attainment %", "goodput tok/s", "request imbalance (max/mean)"),
}

// routerCols is the column axis of the router-comparison grids.
var routerCols = &axis[Cell]{width: 16, label: func(c Cell) string { return c.router }}
