// Baseline shoot-out: every serving system in the repository on the same
// multi-SLO trace — the quick way to reproduce the paper's qualitative
// ordering (AdaServe > static speculation > chunked prefill > continuous
// batching, with fairness/priority baselines unable to hold tight SLOs).
//
// Run with: go run ./examples/baselines
package main

import (
	"fmt"
	"log"
	"sort"

	"adaserve/internal/experiments"
	"adaserve/internal/mathutil"
	"adaserve/internal/workload"
)

func main() {
	setup := experiments.Llama70B()
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 11)
	if err != nil {
		log.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(5), 4.0, 75)
	reqs := gen.FromTimestamps(ts)
	st := workload.StreamStats(reqs)
	fmt.Printf("trace: %d requests at %.1f req/s (60%% coding / 20%% chat / 20%% summarization)\n\n",
		st.Requests, st.MeanRPS)

	systems := []experiments.SystemKind{
		experiments.SysAdaServe,
		experiments.SysVLLMSpec4,
		experiments.SysVLLMSpec6,
		experiments.SysVLLMSpec8,
		experiments.SysSarathi,
		experiments.SysVLLM,
		experiments.SysVLLMPriority,
		experiments.SysFastServe,
		experiments.SysVTC,
	}

	type row struct {
		name    string
		attain  float64
		goodput float64
		acc     float64
	}
	var rows []row
	for _, kind := range systems {
		// Each run replays its own copy of the trace.
		res, err := experiments.RunSpec{Kind: kind, Setup: setup, Seed: 1, Duration: 75, Requests: reqs}.Run()
		if err != nil {
			log.Fatal(err)
		}
		s := res.Summary.Aggregate
		rows = append(rows, row{
			name: s.System, attain: s.Attainment(),
			goodput: s.Goodput, acc: s.MeanAcceptedPerStep,
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].attain > rows[j].attain })

	fmt.Printf("%-20s %12s %14s %10s\n", "system", "attainment", "goodput tok/s", "mean acc")
	for _, r := range rows {
		fmt.Printf("%-20s %11.1f%% %14.0f %10.2f\n", r.name, 100*r.attain, r.goodput, r.acc)
	}
}
