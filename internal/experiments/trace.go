package experiments

import (
	"embed"
	"fmt"
	"strings"

	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/trace"
)

// traceSpecs holds the committed adversarial workload specs the trace
// experiment sweeps; each is a declarative scenario designed to stress a
// different part of the serving stack.
//
//go:embed testdata/specs/*.spec
var traceSpecs embed.FS

// TraceFleet is the trace experiment's static fleet, matching the
// flash-crowd experiment so the two sweeps are comparable: small enough
// that the committed scenarios genuinely contend.
const TraceFleet = 2

// TraceCapacity is the elastic configuration's capacity fleet: one replica
// of headroom over the static baseline, so the autoscaler has somewhere to
// go when a scenario's transient exceeds the static fleet.
const TraceCapacity = 3

// TraceRouter fronts every cell; held fixed so cells differ only in the
// scenario and control configuration.
const TraceRouter = "slo-aware"

// tracePolicy is the elastic configuration's scaling policy.
const tracePolicy = "rate-prop"

// traceSeedSalt decorrelates the sweep's spec-compilation seed from the
// other experiment seed streams.
const traceSeedSalt = 0x7c5

// traceScenarios lists the committed spec scenarios, in sweep order:
//
//	bursty    — a steady coding cohort, a chat cohort arriving in
//	            correlated 6-second bursts (the flash crowds routers and
//	            admission see in production), and a diurnally modulated
//	            summarization cohort.
//	heavytail — a ramping chat cohort against a summarization cohort with
//	            Pareto(α=1.1) prompts: a few enormous contexts wedged into
//	            every batch.
func traceScenarios() []string { return []string{"bursty", "heavytail"} }

// traceConfigs are the control configurations each scenario replays under:
// the static fleet, the static fleet behind the overload admission gate,
// and the elastic fleet under the scaling policy.
func traceConfigs() []string { return []string{"static", "admission", "autoscale"} }

// traceSpec loads and parses a committed scenario spec by name.
func traceSpec(scenario string) (*trace.Spec, error) {
	data, err := traceSpecs.ReadFile("testdata/specs/" + scenario + ".spec")
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown trace scenario %q (want one of %s)",
			scenario, strings.Join(traceScenarios(), ", "))
	}
	return trace.ParseSpec(string(data))
}

// compileTraceSpec compiles a scenario for this sweep's setup and options:
// class SLOs resolve against the setup's baseline decode latency, and the
// run's duration and seed override the spec's, so every config of one
// scenario replays the identical arrival stream.
func compileTraceSpec(spec *trace.Spec, setup ModelSetup, opts RunOptions) (*trace.Trace, error) {
	return trace.Compile(spec, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        opts.Duration,
		Seed:            mathutil.Hash2(opts.Seed, traceSeedSalt),
	})
}

// TraceReplay runs the trace experiment: each committed adversarial
// scenario compiles once per seed and replays identically through the
// static fleet, the admission gate, and the autoscaled fleet. The sweep
// shows what each control mechanism buys against workload compositions —
// correlated bursts, heavy-tail prompts — that the synthetic open-loop
// profiles cannot express.
func TraceReplay(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, scenario := range traceScenarios() {
		for _, config := range traceConfigs() {
			cells = append(cells, Cell{scenario: scenario, config: config})
		}
	}
	return runGrid("trace", opts, cells, func(c Cell) (RunSpec, error) {
		return traceCell(setup, c.scenario, c.config, opts)
	})
}

// traceCell compiles one scenario and describes its replay under one
// configuration.
// Compilation seeding depends only on (opts.Seed, scenario), so every
// configuration of a scenario faces the same requests at the same
// instants; what differs is only how the fleet responds.
func traceCell(setup ModelSetup, scenario, config string, opts RunOptions) (RunSpec, error) {
	spec, err := traceSpec(scenario)
	if err != nil {
		return RunSpec{}, err
	}
	tr, err := compileTraceSpec(spec, setup, opts)
	if err != nil {
		return RunSpec{}, err
	}
	run := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Roles: make([]cluster.Role, TraceFleet), Router: TraceRouter, Trace: tr}
	switch config {
	case "static":
	case "admission":
		if run.Controls.Adaptive, err = AdaptiveConfig("admission", opts.Duration); err != nil {
			return RunSpec{}, err
		}
	case "autoscale":
		run.Controls.Policy = tracePolicy
		run.Roles = make([]cluster.Role, TraceCapacity)
		run.InitialActive = TraceFleet
	default:
		return RunSpec{}, fmt.Errorf("experiments: unknown trace config %q (want one of %s)",
			config, strings.Join(traceConfigs(), ", "))
	}
	return run, nil
}

// TraceTable prints the trace-replay sweep as one table per scenario: a
// row per control configuration, a column per headline metric.
var TraceTable = Table[Cell]{
	section: func(c Cell) string { return "== scenario " + c.scenario + " ==" },
	row:     axis[Cell]{name: "config", width: -20, label: func(c Cell) string { return c.config }},
	columns: sumCols(12, "%.2f", "goodput", "attain%", "ttftAtt%", "maxTTFT", "p50TPOT", "p99TPOT", "p999TPOT", "degraded", "rejected"),
}
