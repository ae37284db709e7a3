// Prefixcache: shared-prefix KV reuse and prefix-affinity routing on a
// multi-tenant session workload.
//
// Twelve tenants each hold a multi-turn conversation against a three-replica
// AdaServe cluster. Every turn re-sends the tenant's shared system prompt
// plus the full conversation so far, so consecutive turns share a long token
// prefix — exactly what the block-hashed prefix cache (internal/kvcache)
// recognizes: an admitted request skips prefill for every prompt block whose
// content hash is already resident, and cold blocks spill to a host offload
// tier instead of being dropped.
//
// The example runs the same closed-loop workload twice — once behind the
// least-loaded router, once behind prefix-affinity, which routes each turn to
// the replica holding the longest cached prefix of its prompt — and compares
// TTFT attainment and cache economics. Affinity wins because a tenant's
// growing history lives only on the replica that served the previous turn;
// load-signal routing fragments it across the fleet.
//
// Run with: go run ./examples/prefixcache
package main

import (
	"fmt"
	"log"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
)

func runRouter(routerName string) {
	setup := experiments.Llama70B()

	// 1. The session workload: per-tenant system prompts and follow-up turns
	// (the same generator adaserve-sim's -prefix flag uses). Sampling is
	// per-session, so both routers face byte-identical offered load.
	sessions, err := experiments.NewSessions(setup, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A three-replica cluster with prefix caching and a host tier enabled
	// on every replica's KV allocator. The run is closed-loop: the opening
	// turns are submitted up front, and each tenant's next turn when the
	// previous one finishes.
	res, err := experiments.RunSpec{Kind: experiments.SysAdaServe, Setup: setup, Seed: 1,
		Build:    experiments.BuildOptions{Prefix: true, PrefixHostBlocks: experiments.PrefixHostTier},
		Roles:    make([]cluster.Role, experiments.PrefixFleet),
		Router:   routerName,
		Sessions: sessions}.Run()
	if err != nil {
		log.Fatal(err)
	}

	// 3. Report: cluster attainment plus the cache's own accounting — hit
	// rate, prefill tokens skipped, evictions and host-tier reloads.
	s := res.Summary
	fmt.Printf("\n%-16s TTFT attainment %5.1f%% | goodput %6.1f tok/s | %d turns\n",
		routerName, 100*s.TTFTAttainment(), s.Goodput(), s.Aggregate.Finished)
	fmt.Printf("%-16s %s\n", "", s.Prefix)
}

func main() {
	fmt.Println("shared-prefix KV reuse: least-loaded vs prefix-affinity routing")
	for _, routerName := range []string{"least-loaded", "prefix-affinity"} {
		runRouter(routerName)
	}
}
