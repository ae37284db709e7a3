// Autoscaling walkthrough: serve one diurnal open-loop arrival stream with
// an equal-peak static 4-replica fleet and with an elastic fleet under each
// scaling policy, then compare the cost-efficiency headline — goodput per
// replica-second — and watch one elastic run's scale timeline.
//
// The static fleet is what a peak-capacity planner deploys: it meets the
// midday swell and then idles three replicas through the trough. The
// elastic fleet starts at one replica and lets the policy buy capacity only
// while the swell needs it, paying a provisioning cold start on every
// scale-up and draining (migrating waiting requests) on every scale-down.
//
// Run with: go run ./examples/autoscale
package main

import (
	"fmt"
	"log"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/metrics"
	"adaserve/internal/serve"
)

const (
	duration = 120.0
	capacity = experiments.AutoscaleFleet
)

// run serves the diurnal open-loop arrival stream with the named
// configuration ("static" or a policy name) and returns the cluster
// summary, optionally logging scale events. Every run generates the stream
// from the same seed, so all configurations face the same requests at the
// same instants.
func run(setup experiments.ModelSetup, config string, logScale bool) (*metrics.ClusterSummary, error) {
	mean, err := experiments.AutoscaleMeanRPS(setup, "diurnal")
	if err != nil {
		return nil, err
	}
	spec := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: duration,
		Roles: make([]cluster.Role, capacity), Router: "least-loaded",
		Controls: experiments.Controls{Policy: config},
		Open:     &experiments.OpenLoad{Profile: "diurnal", RPS: mean, Salt: 0x51e}}
	// A static fleet is the full capacity from t=0; an elastic one starts at
	// one replica and the policy scales it within the capacity.
	if config != "static" {
		spec.InitialActive = 1
	}
	if logScale {
		spec.Observers = append(spec.Observers, serve.ObserverFunc(func(ev serve.Event) {
			switch e := ev.(type) {
			case serve.ScaleUp:
				fmt.Printf("  t=%6.1fs  +replica %d -> fleet %d  (%s)\n",
					e.Time, e.Action.Instance, e.Action.Fleet, e.Action.Reason)
			case serve.ScaleDown:
				fmt.Printf("  t=%6.1fs  -replica %d -> fleet %d  (%s)\n",
					e.Time, e.Action.Instance, e.Action.Fleet, e.Action.Reason)
			}
		}))
	}
	res, err := spec.Run()
	if err != nil {
		return nil, err
	}
	return res.Summary, nil
}

func main() {
	setup := experiments.Llama70B()
	mean, err := experiments.AutoscaleMeanRPS(setup, "diurnal")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model: %s | diurnal load, mean %.1f req/s over %.0fs | capacity %d replicas\n\n",
		setup.Name, mean, duration, capacity)

	// 1. Watch one elastic run's scale timeline: the fleet follows the
	//    sinusoidal swell up and back down.
	fmt.Println("rate-prop scale timeline:")
	if _, err := run(setup, "rate-prop", true); err != nil {
		log.Fatal(err)
	}

	// 2. Compare every configuration on the cost-efficiency headline.
	fmt.Printf("\n%-14s %10s %12s %16s %12s\n",
		"config", "attain %", "replica-s", "good tok/repl-s", "fleet range")
	for _, config := range experiments.AutoscaleConfigs() {
		sum, err := run(setup, config, false)
		if err != nil {
			log.Fatal(err)
		}
		a := sum.Autoscale
		fmt.Printf("%-14s %10.1f %12.1f %16.2f %9d-%d\n",
			config, 100*sum.Attainment(), a.ReplicaSeconds,
			a.GoodputPerReplicaSecond(), a.MinReplicas, a.PeakReplicas)
	}
	fmt.Println("\nThe elastic fleets trade a few attainment points during cold starts for a")
	fmt.Println("fraction of the static fleet's replica-seconds: goodput per replica-second")
	fmt.Println("— the bill a serving operator actually pays — improves accordingly.")
}
