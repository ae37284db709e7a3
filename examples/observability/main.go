// Observability: record per-request span timelines and stream bounded-memory
// metrics from a disaggregated cluster run, then export them in the formats
// real observability stacks ingest.
//
// The example runs a 1-prefill/1-decode AdaServe pair under an open-loop
// flash crowd and subscribes the two internal/obs observers:
//
//   - a SpanRecorder assembles each request's queued → prefill →
//     KV-transfer → decode timeline from the event stream and writes it as
//     Chrome/Perfetto trace-event JSON (load spans.json in ui.perfetto.dev
//     to see every request as a swimlane), and
//   - a MetricsExporter captures the driver's periodic snapshots and writes
//     the series plus the terminal summary as Prometheus text exposition —
//     including full log-bucketed TPOT/TTFT histograms — and as JSON.
//
// Both are pure derivations of the event stream: the run is byte-identical
// with or without them, and every export is deterministic for a fixed seed.
//
// Run with: go run ./examples/observability
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/serve"
)

const duration = 20 // simulated seconds of arrivals

func main() {
	// 1. Lay out a 1P1D disaggregated pair: every request prefills on replica 0,
	//    migrates its KV over the interconnect, and decodes on replica 1 — so
	//    each timeline shows all four phase kinds.
	setup := experiments.Llama70B()
	roles, err := cluster.ParseSplit("1P1D")
	if err != nil {
		log.Fatal(err)
	}

	// 2. Subscribe the observers, with a snapshot every 5 simulated seconds,
	//    and serve a spike-profile open loop at the fleet's operating point.
	spans := obs.NewSpanRecorder()
	mexp := obs.NewMetricsExporter()
	res, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: duration,
		Roles: roles, Router: "slo-aware",
		Open:      &experiments.OpenLoad{Profile: "spike", RPS: experiments.AdaptiveMeanRPS(setup), Salt: 0xada},
		Observers: []serve.Observer{spans, mexp}, SnapshotEvery: 5}.Run()
	if err != nil {
		log.Fatal(err)
	}
	rr, sum := res.Result, res.Summary.Aggregate

	// 3. Export the span timelines as a Perfetto trace.
	var trace bytes.Buffer
	if err := spans.WriteTrace(&trace); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("spans.json", trace.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	timelines := spans.Timelines()
	transfers := 0
	for _, tl := range timelines {
		for _, p := range tl.Phases {
			if p.Name == "kv-transfer" {
				transfers++
			}
		}
	}
	fmt.Printf("spans.json: %d request timelines, %d KV-transfer spans (open in ui.perfetto.dev)\n",
		len(timelines), transfers)

	// 4. Export the metrics series both ways.
	var prom, js bytes.Buffer
	if err := mexp.WritePrometheus(&prom, sum); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("metrics.prom", prom.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	if err := mexp.WriteJSON(&js, sum); err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("metrics.json", js.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("metrics.prom / metrics.json: %d snapshot grid points + terminal summary\n",
		len(mexp.Snapshots()))

	// 5. The same digests back the terminal percentile table — computed from
	//    fixed-size histograms, never from retained per-request slices.
	fmt.Println()
	fmt.Print(obs.PercentileTable(sum))
	fmt.Printf("\n%s\n", summaryLine(sum, rr))
}

// summaryLine condenses the run outcome to one line.
func summaryLine(sum *metrics.Summary, rr *serve.Result) string {
	return fmt.Sprintf("%d requests, attainment %.1f%%, goodput %.1f tok/s, simulated %.1fs over %d iterations",
		sum.Requests, 100*sum.Attainment(), sum.Goodput, rr.EndTime, rr.Iterations)
}
