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
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/sim"
	"adaserve/internal/workload"
)

func main() {
	setup := experiments.Llama70B()

	// 1. The control law itself: profile the verifier, derive the budget,
	//    and print (d, w) across load levels.
	cm := gpu.MustCostModel(setup.HW, setup.Target, setup.TargetTP)
	prof, err := gpu.ProfileCostModel(cm, 4096, 512)
	if err != nil {
		log.Fatal(err)
	}
	budget := prof.BudgetFor(1.3 * prof.Base)
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
		sys, err := experiments.Build(experiments.SysAdaServe, setup, opts)
		if err != nil {
			log.Fatal(err)
		}
		cp := make([]*request.Request, len(reqs))
		for i, r := range reqs {
			cp[i] = request.New(r.ID, r.Category, r.TPOTSLO, r.ArrivalTime, r.PromptLen, r.MaxNewTokens, r.Seed)
		}
		res, err := sim.Run(sys, cp)
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary
		extra := ""
		if a, ok := sys.(*sched.AdaServe); ok && a.Debug.DecodeIters > 0 {
			extra = fmt.Sprintf("  (avg depth %.1f)",
				float64(a.Debug.SumDepth)/float64(a.Debug.DecodeIters))
		}
		fmt.Printf("%-22s attainment %5.1f%%, goodput %5.0f tok/s, mean acc %.2f%s\n",
			name, 100*s.Attainment(), s.Goodput, s.MeanAcceptedPerStep, extra)
	}

	fmt.Println("\nadaptive vs static speculation at 4.2 req/s:")
	run("adaptive (Eq. 8-9)", experiments.BuildOptions{Seed: 1})
	run("static d=2 w=1", experiments.BuildOptions{Seed: 1, StaticD: 2, StaticW: 1})
	run("static d=8 w=4", experiments.BuildOptions{Seed: 1, StaticD: 8, StaticW: 4})

	// 3. The closed loop at runtime: a two-replica fleet under a flash crowd
	//    (spike profile, burst ~5.6x the mean), with and without the
	//    controller gating admission and retuning the envelope ceilings.
	const duration = 30.0
	mean := experiments.AdaptiveMeanRPS(setup)
	fmt.Printf("\nflash crowd on a %d-replica fleet (mean %.1f rps, spike burst):\n",
		experiments.AdaptiveFleet, mean)
	closed := func(name string, cfg *adaptive.Config) {
		rate, maxRate, err := workload.RateProfile("spike", mean, duration)
		if err != nil {
			log.Fatal(err)
		}
		gen2, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(1, 0xada))
		if err != nil {
			log.Fatal(err)
		}
		src, err := serve.NewOpenLoop(gen2, mathutil.NewRNG(mathutil.Hash2(1, 0x7a)), rate, maxRate, duration)
		if err != nil {
			log.Fatal(err)
		}
		cl, err := experiments.BuildCluster(experiments.SysAdaServe, setup, make([]cluster.Role, experiments.AdaptiveFleet),
			experiments.AdaptiveRouter, nil, experiments.BuildOptions{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		opts := serve.Options{}
		var actrl *adaptive.Controller
		if cfg != nil {
			if actrl, err = adaptive.New(cl, *cfg); err != nil {
				log.Fatal(err)
			}
			opts.Adaptive = actrl
		}
		srv, err := serve.NewServer(cl, opts)
		if err != nil {
			log.Fatal(err)
		}
		rr, err := srv.Run(src)
		if err != nil {
			log.Fatal(err)
		}
		s := res2sum(cl, rr)
		fmt.Printf("%-22s attainment %5.1f%%, goodput %5.0f tok/s, max TTFT %.2fs",
			name, 100*s.Attainment(), s.Goodput(), s.Aggregate.MaxTTFT)
		if actrl != nil {
			a := actrl.Summary()
			d, w := actrl.Envelope()
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

// res2sum aggregates a cluster run over its admitted requests.
func res2sum(cl *cluster.Cluster, rr *serve.Result) *metrics.ClusterSummary {
	return cl.Results(rr, nil).Summary
}
