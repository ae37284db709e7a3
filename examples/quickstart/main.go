// Quickstart: serve a small multi-SLO workload with AdaServe and print the
// attainment, goodput and per-category latency summary.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"adaserve/internal/experiments"
	"adaserve/internal/mathutil"
	"adaserve/internal/workload"
)

func main() {
	// 1. Pick the Llama-3.1-70B setup from Table 1 (4-way TP on 4xA100).
	setup := experiments.Llama70B()
	fmt.Printf("model: %s, baseline decode latency: %.1f ms/token\n",
		setup.Name, 1e3*setup.BaselineLatency())

	// 2. Synthesize a 60-second three-category trace at 3.5 req/s
	//    (60% coding copilot, 20% chatbot, 20% summarization — Table 2).
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 42)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(7), 3.5, 60)
	reqs := gen.FromTimestamps(ts)
	st := workload.StreamStats(reqs)
	fmt.Printf("trace: %d requests, %.1f req/s, mean prompt %.0f tok, mean output %.0f tok\n",
		st.Requests, st.MeanRPS, st.MeanPrompt, st.MeanOutput)

	// 3. Describe the run — AdaServe on one simulated replica, replaying
	//    the trace — then replay it to completion and report.
	run := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: 60, Requests: reqs}
	res, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	s := res.Summary.Aggregate
	fmt.Println()
	fmt.Println(s)
	fmt.Printf("\niterations: %d, simulated end: %.1fs\n", res.Iterations, res.EndTime)
	fmt.Printf("breakdown: scheduling %.2f%%, speculation %.1f%%, verification %.1f%%, prefill %.1f%%\n",
		100*s.Breakdown.SchedulingShare(),
		100*s.Breakdown.Speculation/s.Breakdown.Total(),
		100*s.Breakdown.Verification/s.Breakdown.Total(),
		100*s.Breakdown.Prefill/s.Breakdown.Total())
}
