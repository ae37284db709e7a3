// Multi-SLO serving: the paper's headline scenario. Three application
// classes with very different TPOT SLOs (coding copilot at 1.2x baseline,
// chatbot at 50 ms, summarization at 150 ms) share one engine; AdaServe
// serves each at exactly the speed its SLO needs, where continuous batching
// forces one uniform speed on all of them.
//
// Run with: go run ./examples/multislo
package main

import (
	"fmt"
	"log"

	"adaserve/internal/experiments"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

func main() {
	setup := experiments.Llama70B()
	base := setup.BaselineLatency()
	fmt.Printf("model %s, baseline %.1f ms/token\n", setup.Name, 1e3*base)
	fmt.Printf("SLOs: coding %.0f ms, chat 50 ms, summarization 150 ms\n\n", 1.2*1e3*base)

	// A bursty 90-second trace at 4 req/s, 60% coding.
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(5), 4.0, 90)
	reqs := gen.FromTimestamps(ts)

	for _, kind := range []experiments.SystemKind{experiments.SysAdaServe, experiments.SysVLLM} {
		res, err := experiments.RunSpec{Kind: kind, Setup: setup, Seed: 1, Duration: 90, Requests: reqs}.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary.Aggregate
		fmt.Printf("%s: attainment %.1f%%, goodput %.0f tok/s\n",
			s.System, 100*s.Attainment(), s.Goodput)
		for cat := request.Category(0); cat < request.Category(request.NumCategories); cat++ {
			cs := s.PerCategory[cat]
			if cs == nil {
				continue
			}
			fmt.Printf("  %-14s mean TPOT %6.1f ms  (SLO attain %.0f%%)\n",
				cat, 1e3*cs.MeanTPOT, 100*cs.Attainment())
		}
		fmt.Println()
	}
	fmt.Println("Note how AdaServe's summarization TPOT floats toward (but under) its")
	fmt.Println("relaxed 150 ms SLO — the freed budget is what keeps coding under its")
	fmt.Println("tight SLO, the fine-grained decoding-speed control of the paper.")
}
