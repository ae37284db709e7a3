package experiments

import (
	"slices"

	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// PrefixFleet is the prefix experiment's cluster size: three mixed replicas,
// the smallest fleet where routing genuinely fragments a tenant's KV (on one
// replica every router trivially hits the cache).
const PrefixFleet = 3

// PrefixHostTier sizes the experiment's host offload pool in KV blocks.
const PrefixHostTier = 2048

// Session-workload shape: enough tenants that every replica serves several
// concurrently, a system prompt long enough that skipping its prefill is
// material, and enough turns that the growing conversation history — which
// only the replica that served the previous turn holds — dominates prompt
// length by the end.
const (
	// PrefixTenants is exported for the CLI banner.
	PrefixTenants      = 12
	prefixSystemPrompt = 1024
	prefixTurns        = 6
	prefixThink        = 0.5
	prefixSpacing      = 0.25
)

// prefixRouters are the routing policies the prefix experiment compares:
// the two load-signal baselines and the prefix-affinity policy under test
// (slo-aware is omitted — the session workload is single-category, where it
// degrades to least-loaded).
func prefixRouters() []string { return []string{"round-robin", "least-loaded", "prefix-affinity"} }

// NewSessions builds the experiment's session workload for a setup: the
// multi-tenant, multi-turn conversations every cell of the sweep replays
// (shared with adaserve-sim's -prefix wiring).
func NewSessions(setup ModelSetup, seed uint64) (*workload.Sessions, error) {
	return workload.NewSessions(workload.SessionsConfig{
		Seed:            mathutil.Hash2(seed, 0x5e5510),
		Tenants:         PrefixTenants,
		SystemPromptLen: prefixSystemPrompt,
		Turns:           prefixTurns,
		Category:        request.Chat,
		BaselineLatency: setup.BaselineLatency(),
		ArrivalSpacing:  prefixSpacing,
		ThinkTime:       prefixThink,
	})
}

// prefixCell describes the session workload on one cluster configuration:
// a PrefixFleet-replica AdaServe cluster behind the named router, with
// shared-prefix caching (and the host tier) enabled unless cached is false.
// The run is closed-loop: each tenant's follow-up turn is submitted when
// the previous one finishes, so arrivals react to serving speed exactly as
// a session-bound client would.
func prefixCell(setup ModelSetup, routerName string, cached bool, opts RunOptions) (RunSpec, error) {
	sessions, err := NewSessions(setup, opts.Seed)
	if err != nil {
		return RunSpec{}, err
	}
	spec := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Roles: make([]cluster.Role, PrefixFleet), Router: routerName, Sessions: sessions}
	if cached {
		spec.Build = BuildOptions{Prefix: true, PrefixHostBlocks: PrefixHostTier}
	}
	return spec, nil
}

// PrefixCaching runs the prefix experiment: the session workload over every
// router with caching off (the baseline grid, where routers differ only in
// load balance) and on (where prefix-affinity routes turns back to their
// KV). The headline is TTFT attainment at equal load: with caching on, the
// affinity router serves follow-up prompts from cache and skips their
// prefill, which neither load-signal baseline can do once a tenant's blocks
// are fragmented across the fleet.
func PrefixCaching(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, cached := range []bool{false, true} {
		for _, routerName := range prefixRouters() {
			cells = append(cells, Cell{router: routerName, cached: cached})
		}
	}
	return runGrid("prefix", opts, cells, func(c Cell) (RunSpec, error) {
		return prefixCell(setup, c.router, c.cached, opts)
	})
}

// PrefixTable prints the prefix experiment: one row per (router, caching)
// cell with the TTFT/TPOT attainment headline and the cache economics.
var PrefixTable = Table[Cell]{
	row: axis[Cell]{name: "router", width: -18, label: func(c Cell) string { return c.router }},
	columns: slices.Concat(
		[]column[Cell]{{name: "prefix", width: -10, text: func(c Cell) string {
			if c.cached {
				return "on"
			}
			return "off"
		}}},
		sumCols(10, "%.1f", "ttft%", "attain%"),
		sumCols(12, "%.1f", "goodput"),
		sumCols(10, "%.1f", "hit%"),
		sumCols(12, "%.0f", "savedTok"),
		sumCols(10, "%.0f", "evict", "reloads"),
	),
}
