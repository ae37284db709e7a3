// Traces: compile a declarative workload spec into a versioned trace,
// replay it through a small AdaServe cluster, export the run's admitted
// arrival stream back to a trace, and replay the export through a fresh
// identically built cluster to show the loop closes: the second export is
// byte-identical to the first.
//
// Run with: go run ./examples/traces
package main

import (
	"fmt"
	"log"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
)

// spec is a two-cohort scenario: a steady coding cohort and a chat cohort
// arriving in correlated 10-second bursts.
const spec = `#adaserve-spec v1
#meta seed 7
#meta duration 40
#meta name example
cohort ide class=coding rate=2 arrival=poisson prompt=lognormal:160,0.45,32,1024 output=lognormal:90,0.5,16,512
cohort flash class=chat arrival=bursts:10,24,1 prompt=fixed:64 output=fixed:96 tenants=4
`

func main() {
	// 1. Parse the spec and compile it against the Llama-3.1-70B setup: class
	//    SLOs resolve from the baseline decode latency, and every sample —
	//    arrival instants, lengths, tenant tags — is drawn from per-cohort
	//    seeded streams, so the same (spec, seed) always compiles to the same
	//    trace.
	setup := experiments.Llama70B()
	sp, err := trace.ParseSpec(spec)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := trace.Compile(sp, trace.CompileOptions{BaselineLatency: setup.BaselineLatency()})
	if err != nil {
		log.Fatal(err)
	}
	st := tr.Stats()
	fmt.Printf("compiled %q: %d arrivals over %.1fs (mean %.2f rps, %d classes)\n",
		sp.Name, st.Arrivals, tr.Duration(), st.MeanRPS, len(tr.Header.Classes))

	// 2. Replay it through a 2-replica AdaServe cluster, recording every
	//    admitted arrival with an export observer. runOnce is reused for the
	//    replay leg below: same build, same seed, different trace.
	runOnce := func(replay *trace.Trace) *trace.Trace {
		exp := trace.NewExporter(trace.ExportOptions{Seed: tr.Header.Seed, Source: "export:example"})
		res, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1,
			Roles: make([]cluster.Role, 2), Router: "slo-aware",
			Trace: replay, Observers: []serve.Observer{exp}}.Run()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  served %d requests: attainment %.1f%%, goodput %.1f tok/s\n",
			res.Summary.Aggregate.Requests, 100*res.Summary.Attainment(), res.Summary.Goodput())
		out, err := exp.Trace()
		if err != nil {
			log.Fatal(err)
		}
		return out
	}
	fmt.Println("\nreplaying the compiled trace:")
	exported := runOnce(tr)

	// 3. Round-trip the export through its file form — Format is canonical,
	//    so parse(format(t)) is t — and replay it through a fresh cluster.
	parsed, err := trace.Parse(exported.Format())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nreplaying the exported trace:")
	replayed := runOnce(parsed)

	// 4. The loop closes: the replayed run admitted exactly the arrivals the
	//    original exported, so its own export is byte-identical.
	if replayed.Format() != exported.Format() {
		log.Fatal("export→replay loop did not close")
	}
	fmt.Printf("\nexport→replay loop closed: both exports are identical (%d arrivals, %d bytes)\n",
		len(exported.Arrivals), len(exported.Format()))
}
