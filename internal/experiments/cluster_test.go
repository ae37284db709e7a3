package experiments

import (
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/workload"
)

func TestBuildClusterValidates(t *testing.T) {
	setup := Llama70B()
	if _, err := buildCluster(SysAdaServe, setup, nil, "round-robin", nil, BuildOptions{Seed: 1}); err == nil {
		t.Fatal("zero-replica cluster accepted")
	}
	if _, err := buildCluster(SysAdaServe, setup, make([]cluster.Role, 2), "random", nil, BuildOptions{Seed: 1}); err == nil {
		t.Fatal("unknown router accepted")
	}
	cl, err := buildCluster(SysAdaServe, setup, make([]cluster.Role, 3), "slo-aware", nil, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Size() != 3 {
		t.Fatalf("cluster size %d", cl.Size())
	}
}

func TestClusterRunEndToEnd(t *testing.T) {
	setup := Llama70B()
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := workload.PoissonTrace(mathutil.NewRNG(11), 6.0, 10)
	reqs := gen.FromTimestamps(ts)
	res := runSpec(t, RunSpec{Kind: SysAdaServe, Setup: setup, Seed: 1,
		Roles: make([]cluster.Role, 2), Router: "slo-aware", Requests: reqs}, nil).Fleet
	if res.Summary.Aggregate.Finished != len(reqs) {
		t.Fatalf("finished %d of %d", res.Summary.Aggregate.Finished, len(reqs))
	}
	if len(res.PerReplica) != 2 {
		t.Fatalf("%d per-replica results", len(res.PerReplica))
	}
	routed := 0
	for _, rr := range res.PerReplica {
		routed += rr.Summary.Requests
	}
	if routed != len(reqs) {
		t.Fatalf("per-replica summaries cover %d of %d", routed, len(reqs))
	}
}

func TestClusterScalingSLOAwareBeatsRoundRobin(t *testing.T) {
	// The acceptance bar for the replica-scaling experiment: at equal
	// per-replica load, the SLO-aware router attains at least as much as
	// round-robin on multi-replica clusters, deterministically under a
	// fixed seed. The trace must be long enough (120 s, the adaserve-bench
	// default) to develop the sustained overload bursts the island
	// mechanism targets; a 30 s trace is all cold-start ramp.
	if testing.Short() {
		t.Skip("full replica-scaling experiment in -short mode")
	}
	setup := Llama70B()
	run := func() []Cell {
		pts, err := ClusterScaling(setup, RunOptions{Seed: 1, Duration: 120})
		if err != nil {
			t.Fatal(err)
		}
		return pts
	}
	pts := run()
	att := func(pts []Cell, n int, router string) float64 {
		for _, p := range pts {
			if p.replicas == n && p.router == router {
				return p.Sum.Attainment()
			}
		}
		t.Fatalf("missing point n=%d router=%s", n, router)
		return 0
	}
	// The SLO-aware island mechanism needs n >= 3 replicas; n = 2 degrades
	// to per-class balancing, which is statistically equivalent to
	// round-robin, so the comparison is asserted at n = 3, 4 and 8.
	for _, n := range []int{3, 4, 8} {
		rr, slo := att(pts, n, "round-robin"), att(pts, n, "slo-aware")
		if slo < rr {
			t.Errorf("n=%d: slo-aware attainment %.3f below round-robin %.3f", n, slo, rr)
		}
	}
	// Single replica: routing cannot matter, every policy must agree.
	base := att(pts, 1, "round-robin")
	for _, r := range []string{"least-loaded", "slo-aware"} {
		if got := att(pts, 1, r); got != base {
			t.Errorf("n=1: %s attainment %.3f != round-robin %.3f", r, got, base)
		}
	}
	// Determinism: a second run must reproduce every attainment exactly.
	pts2 := run()
	for i := range pts {
		if pts[i].Sum.Attainment() != pts2[i].Sum.Attainment() {
			t.Errorf("n=%d router=%s not deterministic: %.6f vs %.6f",
				pts[i].replicas, pts[i].router, pts[i].Sum.Attainment(), pts2[i].Sum.Attainment())
		}
	}
}
