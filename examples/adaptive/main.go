// Adaptive speculation control: shows Eq. 8-9 in action. As the active
// request count n rises, AdaServe shrinks the beam depth d and width w so
// speculative work stays inside the verification budget; a static
// configuration wastes draft compute at high load and under-speculates at
// low load.
//
// The last section closes the loop at runtime: a controller subscribed to
// the serving event stream retunes the envelope the per-iteration law works
// within, and an admission gate sheds the part of a flash crowd the fleet
// provably cannot serve — degrading first, rejecting only at saturation.
//
// Run with: go run ./examples/adaptive
package main

import (
	"fmt"
	"log"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/core"
	"adaserve/internal/experiments"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/sched"
	"adaserve/internal/workload"
)

func main() {
	setup := experiments.Llama70B()

	// 1. The control law itself: profile the verifier, derive the budget,
	//    and print (d, w) across load levels.
	cm := gpu.MustCostModel(setup.HW, setup.Target, setup.TargetTP)
	prof, budget, err := sched.VerifyBudget(cm)
	if err != nil {
		log.Fatal(err)
	}
	ctrl := core.DefaultController(budget)
	fmt.Printf("profiled verifier: base %.1f ms, knee %d tokens, budget B=%d\n\n",
		1e3*prof.Base, prof.Knee, budget)
	fmt.Println("active requests n ->  depth d, width w   (Eq. 8-9)")
	for _, n := range []int{1, 4, 8, 16, 32, 64, 128} {
		d, w := ctrl.Params(n)
		fmt.Printf("  n = %3d            ->  d = %d, w = %d\n", n, d, w)
	}

	// 2. End to end: adaptive vs static speculation under a load burst.
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(5), 4.2, 75)
	reqs := gen.FromTimestamps(ts)

	run := func(name string, opts experiments.BuildOptions) {
		armed, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: 75,
			Build: opts, Requests: reqs}.Lower()
		if err != nil {
			log.Fatal(err)
		}
		res, err := armed.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary.Aggregate
		extra := ""
		if a, ok := armed.Backend().Instances()[0].System().(*sched.AdaServe); ok && a.Debug.DecodeIters > 0 {
			extra = fmt.Sprintf("  (avg depth %.1f)",
				float64(a.Debug.SumDepth)/float64(a.Debug.DecodeIters))
		}
		fmt.Printf("%-22s attainment %5.1f%%, goodput %5.0f tok/s, mean acc %.2f%s\n",
			name, 100*s.Attainment(), s.Goodput, s.MeanAcceptedPerStep, extra)
	}

	fmt.Println("\nadaptive vs static speculation at 4.2 req/s:")
	run("adaptive (Eq. 8-9)", experiments.BuildOptions{})
	run("static d=2 w=1", experiments.BuildOptions{StaticD: 2, StaticW: 1})
	run("static d=8 w=4", experiments.BuildOptions{StaticD: 8, StaticW: 4})

	// 3. The closed loop at runtime: a two-replica fleet under a flash crowd
	//    (spike profile, burst ~5.6x the mean), with and without the
	//    controller gating admission and retuning the envelope ceilings.
	const duration = 30.0
	mean := experiments.AdaptiveMeanRPS(setup)
	fmt.Printf("\nflash crowd on a %d-replica fleet (mean %.1f rps, spike burst):\n",
		experiments.AdaptiveFleet, mean)
	closed := func(name string, cfg *adaptive.Config) {
		armed, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: duration,
			Roles: make([]cluster.Role, experiments.AdaptiveFleet), Router: experiments.AdaptiveRouter,
			Controls: experiments.Controls{Adaptive: cfg},
			Open:     &experiments.OpenLoad{Profile: "spike", RPS: mean, Salt: 0xada}}.Lower()
		if err != nil {
			log.Fatal(err)
		}
		res, err := armed.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		fmt.Printf("%-22s attainment %5.1f%%, goodput %5.0f tok/s, max TTFT %.2fs",
			name, 100*s.Attainment(), s.Goodput(), s.Aggregate.MaxTTFT)
		if a := s.Admission; a != nil {
			// The controller actuates its envelope onto every replica.
			d, w := armed.Backend().Instances()[0].System().(adaptive.SpecTunable).SpecEnvelope()
			fmt.Printf("  (%d degraded, %d rejected; envelope d<=%d w<=%d)", a.Degraded, a.Rejected, d, w)
		}
		fmt.Println()
	}
	closed("static", nil)
	cfg, err := experiments.AdaptiveConfig("adaptive+admission", duration)
	if err != nil {
		log.Fatal(err)
	}
	closed("closed loop + gate", cfg)
}
