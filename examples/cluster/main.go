// Cluster walkthrough: serve one global arrival stream with a 4-replica
// AdaServe cluster under each router policy and compare cluster-aggregate
// SLO attainment, goodput and per-replica balance.
//
// Run with: go run ./examples/cluster
package main

import (
	"fmt"
	"log"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/mathutil"
	"adaserve/internal/workload"
)

func main() {
	// 1. Pick the Llama-3.1-70B setup and a 4-replica deployment at a
	//    contended per-replica load (3.8 req/s each, 15.2 req/s total).
	setup := experiments.Llama70B()
	const replicas = 4
	const perReplicaRPS = 3.8
	fmt.Printf("model: %s, %d replicas, %.1f req/s per replica\n",
		setup.Name, replicas, perReplicaRPS)

	// 2. Synthesize one shared trace: a bursty real-world arrival shape
	//    with the default 60/20/20 coding/chat/summarization mix.
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(7), perReplicaRPS*replicas, 120)
	reqs := gen.FromTimestamps(ts)
	fmt.Printf("trace: %d requests over 120s\n\n", len(reqs))

	// 3. Replay the identical trace through each router policy. Every run
	//    builds a fresh cluster and replays its own copy of the trace.
	run := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: 120,
		Roles: make([]cluster.Role, replicas), Requests: reqs}
	for _, routerName := range cluster.RouterNames() {
		run.Router = routerName
		res, err := run.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-14s attainment %5.1f%% | goodput %7.1f tok/s | imbalance %.2f\n",
			routerName, 100*s.Attainment(), s.Goodput(), s.RequestImbalance())
	}

	// 4. Rerun the winner and show its per-replica breakdown.
	fmt.Println("\nper-replica detail (slo-aware):")
	run.Router = "slo-aware"
	res, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	for _, rr := range res.Fleet.PerReplica {
		s := rr.Summary
		fmt.Printf("  %s: %3d reqs, attain %5.1f%%, %4d iterations, local end %.1fs\n",
			s.System, s.Requests, 100*s.Attainment(), rr.Iterations, rr.EndTime)
	}
}
