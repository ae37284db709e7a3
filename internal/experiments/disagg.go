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

// DisaggMix tags a workload mix swept by the disaggregation experiment.
type DisaggMix struct {
	Name string
	Mix  workload.Mix
}

// DisaggMixes returns the SLO mixes of the disaggregation sweep: the default
// 60/20/20 interactive-heavy mix, and a summarization-heavy mix whose long
// prompts are where prefill interference hurts colocated replicas most.
func DisaggMixes() []DisaggMix {
	return []DisaggMix{
		{Name: "default", Mix: workload.DefaultMix},
		{Name: "summ-heavy", Mix: workload.Mix{0.2, 0.2, 0.6}},
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
	for _, mix := range DisaggMixes() {
		reqs, err := mixedTrace(setup, mix.Mix, 1.0, rps, opts.Duration, opts.Seed)
		if err != nil {
			return nil, err
		}
		traces[mix.Name] = reqs
		for _, split := range DisaggSplits() {
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, Cell{Split: split, Router: routerName, Mix: mix.Name})
			}
		}
	}
	return runGrid("disagg", opts, cells, func(c Cell) (RunSpec, error) {
		roles := make([]cluster.Role, 4)
		if c.Split != "colocated" {
			var err error
			if roles, err = cluster.ParseSplit(c.Split); err != nil {
				return RunSpec{}, err
			}
		}
		return RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
			Roles: roles, Router: c.Router, Requests: traces[c.Mix]}, nil
	})
}

// DisaggTable prints the disaggregation experiment per mix: TTFT
// attainment, TPOT attainment, goodput and mean KV-transfer latency, one
// row per fleet split and one column per router.
var DisaggTable = Table[Cell]{
	Section: func(c Cell) string { return "== mix " + c.Mix + " ==" },
	Row:     Axis[Cell]{Name: "split", Width: -10, Label: func(c Cell) string { return c.Split }},
	Cols:    routerCols,
	Columns: sumCols(0, "%.2f", "TTFT attainment %", "TPOT attainment %", "goodput tok/s", "KV transfer mean ms"),
}
