// Disaggregation walkthrough: serve one arrival stream with a colocated
// 4-replica AdaServe fleet and with the same four replicas split into
// dedicated prefill and decode instances, and compare TTFT/TPOT attainment,
// goodput and the KV-transfer overhead of the prefill-to-decode handoff.
//
// Run with: go run ./examples/disagg
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
	// 1. Pick the Llama-3.1-70B setup at the disaggregation experiment's
	//    aggregate load: four replicas' worth of a contended per-replica
	//    rate, offered to every fleet layout identically.
	setup := experiments.Llama70B()
	aggRPS := experiments.DisaggAggregateRPS(setup)
	fmt.Printf("model: %s, 4 replicas, %.1f req/s aggregate, link %s\n",
		setup.Name, aggRPS, experiments.DisaggLink.Name)

	// 2. Synthesize one shared trace with the default 60/20/20 mix. Every
	//    request carries both a TPOT SLO and a TTFT SLO; disaggregation
	//    changes who owns each (prefill replicas own TTFT, decode replicas
	//    own TPOT, the interconnect sits in between).
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(7), aggRPS, 120)
	reqs := gen.FromTimestamps(ts)
	fmt.Printf("trace: %d requests over 120s\n\n", len(reqs))

	// 3. Replay the identical trace through each fleet layout behind the
	//    slo-aware router (which balances prompt backlog across prefill
	//    replicas and per-class residency across decode replicas).
	run := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: 120,
		Router: "slo-aware", Requests: reqs}
	for _, split := range experiments.DisaggSplits() {
		run.Roles = make([]cluster.Role, 4) // colocated: four mixed replicas
		if split != "colocated" {
			if run.Roles, err = cluster.ParseSplit(split); err != nil {
				log.Fatal(err)
			}
		}
		res, err := run.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-10s TTFT attain %5.1f%% | TPOT attain %5.1f%% | goodput %7.1f tok/s",
			split, 100*s.TTFTAttainment(), 100*s.Attainment(), s.Goodput())
		if s.Transfer.Count > 0 {
			fmt.Printf(" | %d transfers, mean %.1f ms", s.Transfer.Count, 1e3*s.Transfer.MeanLatency())
		}
		fmt.Println()
	}

	// 4. Rerun the balanced split and show the per-role view: who served
	//    which stage, and how attainment splits across the fleet.
	fmt.Println("\nper-role detail (2P2D, slo-aware):")
	if run.Roles, err = cluster.ParseSplit("2P2D"); err != nil {
		log.Fatal(err)
	}
	res, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	stage := func(n int, noun, metric string, attain float64) string {
		if n == 0 {
			return fmt.Sprintf("%4d %s", n, noun)
		}
		return fmt.Sprintf("%4d %s (%s %5.1f%%)", n, noun, metric, 100*attain)
	}
	for _, rs := range res.Summary.Roles {
		fmt.Printf("  role %-8s x%d: %s, %s\n", rs.Role, rs.Replicas,
			stage(rs.PrefillRequests, "prefills", "TTFT attain", rs.TTFTAttainment()),
			stage(rs.DecodeRequests, "decodes", "TPOT attain", rs.TPOTAttainment()))
	}
	for _, rr := range res.Fleet.PerReplica {
		s := rr.Summary
		fmt.Printf("  %s: %3d reqs, %4d iterations, local end %.1fs\n",
			s.System, s.Requests, rr.Iterations, rr.EndTime)
	}
}
