package experiments

import (
	"slices"

	"adaserve/internal/lm"
	"adaserve/internal/workload"
)

// ablationConfigs are the ablation study's configurations, by row label:
// the system each runs and the design choice it switches.
var ablationConfigs = []struct {
	name  string
	kind  SystemKind
	build BuildOptions
}{
	{"AdaServe (full)", SysAdaServe, BuildOptions{}},
	{"interleaved Algorithm 1", sysAdaServeInterleaved, BuildOptions{}},
	{"static d=4 w=1 (chains)", SysAdaServe, BuildOptions{StaticD: 4, StaticW: 1}},
	{"static d=8 w=4 (max trees)", SysAdaServe, BuildOptions{StaticD: 8, StaticW: 4}},
	{"no n_max cap", SysAdaServe, BuildOptions{disableNMax: true}},
	{"no CUDA graphs", SysAdaServe, BuildOptions{disableCUDAGraphs: true}},
	{"greedy verification", SysAdaServe, BuildOptions{rule: lm.RuleGreedy}},
}

// Ablations runs the design-choice studies, all at one fixed
// moderate-high load (RPS 3.8, default mix), one cell per configuration
// (Config labels it):
//
//  1. decoupled speculate-select (AdaServe) vs interleaved Algorithm 1;
//  2. adaptive (d, w) control vs static settings;
//  3. per-request cap n_max on vs off;
//  4. CUDA-graph launch amortization on vs off;
//  5. sample-match vs greedy verification rule.
func Ablations(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, 3.8, opts.Duration, opts.Seed)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, len(ablationConfigs))
	builds := map[string]BuildOptions{}
	for i, c := range ablationConfigs {
		cells[i] = Cell{System: c.kind, config: c.name}
		builds[c.name] = c.build
	}
	return runGrid("ablation", opts, cells, func(c Cell) (RunSpec, error) {
		return RunSpec{Kind: c.System, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
			Build: builds[c.config], Requests: reqs}, nil
	})
}

// AblationsTable prints the ablation study: one row per configuration.
var AblationsTable = Table[Cell]{
	row: axis[Cell]{name: "configuration", width: -28, label: func(c Cell) string { return c.config }},
	columns: slices.Concat(
		sumCols(13, "%.1f", "attain %", "goodput"),
		sumCols(11, "%.2f", "mean acc"),
		sumCols(15, "%.3f", "sched share %"),
	),
}
