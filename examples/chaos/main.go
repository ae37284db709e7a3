// Chaos walkthrough: inject a replica crash and a straggler into an elastic
// AdaServe fleet, watch the failure lifecycle on the event stream, and
// compare what each recovery mode buys back.
//
// A crash freezes a replica mid-run: its queued and running requests — and
// all their cached KV — are gone. With no recovery those requests simply
// never finish (every one is an SLO violation). With retry, timeout
// detection harvests the frozen pool and re-dispatches it across the
// survivors with budgeted exponential backoff, while the autoscaler
// provisions replacement capacity as if the crash had been an organic
// scale-down. With retry+hedge, requests whose TTFT deadline is at risk on
// a suspect replica additionally race a duplicate on a healthy one — first
// finish wins, the loser is cancelled but billed. Hedging is the only mode
// that helps against a straggler: a slowed-but-alive replica never trips
// timeout detection.
//
// Every fault instant, detection, retry and hedge is a pure function of the
// seed: rerun this example and you get byte-identical output.
//
// Run with: go run ./examples/chaos
package main

import (
	"fmt"
	"log"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/metrics"
	"adaserve/internal/serve"
)

const (
	duration = 60.0
	capacity = experiments.FaultFleet
	active   = experiments.FaultInitialActive
)

// run serves the steady open-loop arrival stream at the scenario's
// operating point against the given fault schedule under one recovery
// mode, optionally narrating the failure lifecycle. Every run generates the
// stream from the same seed, so all recovery modes face the same requests
// at the same instants.
func run(setup experiments.ModelSetup, scenario, spec string, recovery faults.Recovery, narrate bool) (*metrics.ClusterSummary, error) {
	parsed, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	// The controls arm the fault injector and the rate-prop autoscaler on
	// the elastic fleet.
	cell := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: duration,
		Roles: make([]cluster.Role, capacity), Router: experiments.FaultRouter, InitialActive: active,
		Controls: experiments.Controls{Policy: "rate-prop", Faults: parsed, Recovery: recovery},
		Open:     &experiments.OpenLoad{Profile: "constant", RPS: experiments.FaultMeanRPS(setup, scenario), Salt: 0xfa}}
	if narrate {
		hedges := 0
		cell.Observers = append(cell.Observers, serve.ObserverFunc(func(ev serve.Event) {
			switch e := ev.(type) {
			case serve.ReplicaFailed:
				fmt.Printf("  t=%6.1fs  replica %d crashed (%s): %d resident requests frozen\n",
					e.Time, e.Instance, e.Reason, e.Lost)
			case serve.ReplicaRecovered:
				fmt.Printf("  t=%6.1fs  replica %d recovered after %.1fs down\n",
					e.Time, e.Instance, e.Downtime)
			case serve.RequestRetried:
				fmt.Printf("  t=%6.1fs  request %d retried (attempt %d) on replica %d\n",
					e.Time, e.Req.ID, e.Attempt, e.Instance)
			case serve.RequestHedged:
				if hedges++; hedges <= 5 {
					fmt.Printf("  t=%6.1fs  request %d hedged onto replica %d\n",
						e.Time, e.Req.ID, e.Instance)
				} else if hedges == 6 {
					fmt.Println("  ... (further hedges elided)")
				}
			case serve.ScaleUp:
				fmt.Printf("  t=%6.1fs  +replica %d -> fleet %d  (%s)\n",
					e.Time, e.Action.Instance, e.Action.Fleet, e.Action.Reason)
			}
		}))
	}
	res, err := cell.Run()
	if err != nil {
		return nil, err
	}
	return res.Summary, nil
}

// compare prints the recovery-mode table for one fault schedule.
func compare(setup experiments.ModelSetup, scenario, title, spec string) {
	fmt.Printf("\n%s (%s, %.1f req/s):\n", title, spec, experiments.FaultMeanRPS(setup, scenario))
	fmt.Printf("%-14s %10s %10s %10s %6s %8s %7s\n",
		"recovery", "goodput", "attain %", "maxTTFT", "lost", "retried", "hedged")
	for _, rec := range []faults.Recovery{faults.RecoveryNone, faults.RecoveryRetry, faults.RecoveryRetryHedge} {
		sum, err := run(setup, scenario, spec, rec, false)
		if err != nil {
			log.Fatal(err)
		}
		f := sum.Faults
		fmt.Printf("%-14s %10.1f %10.1f %10.2f %6d %8d %7d\n",
			rec, sum.Goodput(), 100*sum.Attainment(), sum.Aggregate.MaxTTFT,
			f.LostRequests, f.Retried, f.Hedged)
	}
}

func main() {
	setup := experiments.Llama70B()
	fmt.Printf("model: %s | constant load over %.0fs | fleet %d of %d active\n",
		setup.Name, duration, active, capacity)

	// 1. Watch one crash's full lifecycle: injection, detection + harvest,
	//    backed-off retries, autoscale-driven replacement, repair.
	crash := "crash@15+10:r0"
	fmt.Printf("\nfailure lifecycle under retry+hedge (%s):\n", crash)
	if _, err := run(setup, "crash", crash, faults.RecoveryRetryHedge, true); err != nil {
		log.Fatal(err)
	}

	// 2. Compare recovery modes on the crash (at the contended operating
	//    point) and on a straggler (with the headroom hedging races in).
	compare(setup, "crash", "replica crash", crash)
	compare(setup, "straggler", "6x straggler", "slow@15+30:r0:x6")

	fmt.Println("\nRetry recovers the crash's lost requests — goodput and attainment return.")
	fmt.Println("Against the straggler only hedging helps: the replica is alive, so timeout")
	fmt.Println("detection never fires, but duplicates racing on healthy replicas put a")
	fmt.Println("bound back on the worst-case TTFT.")
}
