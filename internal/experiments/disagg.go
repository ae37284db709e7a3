package experiments

import (
	"adaserve/internal/cluster"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// DisaggSplits are the four-replica fleet layouts the disaggregation
// experiment compares at equal aggregate load: the colocated baseline
// against every prefill/decode partition of the same four replicas.
func DisaggSplits() []string { return []string{"colocated", "1P3D", "2P2D", "3P1D"} }

// disaggMix tags a workload mix swept by the disaggregation experiment.
type disaggMix struct {
	name string
	mix  workload.Mix
}

// disaggMixes returns the SLO mixes of the disaggregation sweep: the default
// 60/20/20 interactive-heavy mix, and a summarization-heavy mix whose long
// prompts are where prefill interference hurts colocated replicas most.
func disaggMixes() []disaggMix {
	return []disaggMix{
		{name: "default", mix: workload.DefaultMix},
		{name: "summ-heavy", mix: workload.Mix{0.2, 0.2, 0.6}},
	}
}

// DisaggAggregateRPS returns the experiment's fixed aggregate offered load:
// four replicas' worth of the replica-scaling experiment's per-replica rate,
// so every split — colocated or partitioned — faces the identical trace.
func DisaggAggregateRPS(setup ModelSetup) float64 {
	return 4 * ClusterPerReplicaRPS(setup)
}

// Disaggregation runs the prefill/decode-disaggregation experiment: an
// AdaServe fleet of four replicas, colocated vs every P/D partition, under
// each router policy and SLO mix, at equal aggregate load. All cells of one
// mix replay the identical trace, so differences are pure fleet-layout and
// routing effects.
func Disaggregation(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	rps := DisaggAggregateRPS(setup)
	traces := map[string][]*request.Request{}
	var cells []Cell
	for _, mix := range disaggMixes() {
		reqs, err := mixedTrace(setup, mix.mix, 1.0, rps, opts.Duration, opts.Seed)
		if err != nil {
			return nil, err
		}
		traces[mix.name] = reqs
		for _, split := range DisaggSplits() {
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, Cell{split: split, router: routerName, mix: mix.name})
			}
		}
	}
	return runGrid("disagg", opts, cells, func(c Cell) (RunSpec, error) {
		roles := make([]cluster.Role, 4)
		if c.split != "colocated" {
			var err error
			if roles, err = cluster.ParseSplit(c.split); err != nil {
				return RunSpec{}, err
			}
		}
		return RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
			Roles: roles, Router: c.router, Requests: traces[c.mix]}, nil
	})
}

// DisaggTable prints the disaggregation experiment per mix: TTFT
// attainment, TPOT attainment, goodput and mean KV-transfer latency, one
// row per fleet split and one column per router.
var DisaggTable = Table[Cell]{
	section: func(c Cell) string { return "== mix " + c.mix + " ==" },
	row:     axis[Cell]{name: "split", width: -10, label: func(c Cell) string { return c.split }},
	cols:    routerCols,
	columns: sumCols(0, "%.2f", "TTFT attainment %", "TPOT attainment %", "goodput tok/s", "KV transfer mean ms"),
}
