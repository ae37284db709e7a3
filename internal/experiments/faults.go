package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/cluster"
	"adaserve/internal/faults"
)

// FaultFleet is the chaos experiment's capacity fleet for the crash and
// straggler scenarios: an elastic colocated AdaServe deployment sized so
// that losing one replica hurts but recovery has somewhere to send work.
const FaultFleet = 4

// FaultInitialActive is the fleet's steady-state size; the spare capacity
// replica is what autoscale-driven replacement provisions into after a
// crash.
const FaultInitialActive = 3

// FaultRouter fronts every chaos cell; held fixed so cells differ only in
// the fault schedule and recovery mode.
const FaultRouter = "slo-aware"

// faultScenarios are the failure shapes of the chaos sweep: a replica crash
// with repair, a slowed-but-alive straggler, and a lossy/degraded KV-transfer
// link on a disaggregated fleet.
func faultScenarios() []string { return []string{"crash", "straggler", "link"} }

// faultRecoveries are the recovery modes under comparison.
func faultRecoveries() []string { return []string{"none", "retry", "retry+hedge"} }

// faultSpec returns the pinned fault schedule for a scenario, scaled to the
// run duration so short CI runs and long sweeps keep the same proportions:
//
//	crash     — replica 0 dies a quarter into the run, repaired after D/6
//	            (requests frozen there are lost unless recovery re-dispatches).
//	straggler — replica 0 runs 6x slow for the middle half of the run: alive,
//	            so timeout detection never fires — only hedging helps.
//	link      — the KV-transfer fabric drops half of all migrations and slows
//	            the survivors 3x for the middle half of the run.
func faultSpec(scenario string, duration float64) (faults.Spec, error) {
	var raw string
	switch scenario {
	case "crash":
		raw = fmt.Sprintf("crash@%g+%g:r0", duration/4, duration/6)
	case "straggler":
		raw = fmt.Sprintf("slow@%g+%g:r0:x6", duration/4, duration/2)
	case "link":
		raw = fmt.Sprintf("link@%g+%g:p0.5:x3", duration/4, duration/2)
	default:
		return faults.Spec{}, fmt.Errorf("experiments: unknown fault scenario %q (want one of %s)",
			scenario, strings.Join(faultScenarios(), ", "))
	}
	return faults.ParseSpec(raw)
}

// faultLoadFactor scales each scenario's offered load against the steady
// fleet's capacity, because the two recovery mechanisms are meaningful in
// different operating regimes. Failover is judged at the contended
// operating point (factor 1): a crash there genuinely backs work up, and
// retry's re-dispatch is what wins it back. Hedging is judged with
// provisioned headroom (factor 0.9): duplicates race in the survivors'
// slack, exactly the regime tail-tolerant hedging is designed for — a
// fleet pinned at saturation would convert every duplicate into queueing
// delay for healthy traffic. Custom schedules get the headroom factor so
// both mechanisms have room to act.
func faultLoadFactor(scenario string) float64 {
	if scenario == "straggler" || scenario == "custom" {
		return 0.9
	}
	return 1.0
}

// FaultMeanRPS is the chaos sweep's offered load for one scenario.
func FaultMeanRPS(setup ModelSetup, scenario string) float64 {
	return faultLoadFactor(scenario) * FaultInitialActive * ClusterPerReplicaRPS(setup)
}

// Faults runs the chaos sweep: every failure scenario crossed with every
// recovery mode, each cell replaying the identical arrival stream against the
// identical fault schedule — only the recovery response differs. The headline
// comparisons: under a crash, retry+failover recovers the goodput and
// attainment that no-recovery forfeits to lost requests; under a straggler,
// hedged re-dispatch bounds the worst-case TTFT that retry alone (which never
// triggers — the replica is alive) cannot touch.
func Faults(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, scenario := range faultScenarios() {
		for _, recovery := range faultRecoveries() {
			cells = append(cells, Cell{scenario: scenario, recovery: recovery})
		}
	}
	return runGrid("faults", opts, cells, func(c Cell) (RunSpec, error) {
		return faultCell(setup, c.scenario, c.recovery, opts)
	})
}

// FaultsWithSpec runs the recovery-mode comparison on a caller-supplied
// schedule (adaserve-bench's -faults override): every recovery mode replays
// the custom spec as one "custom" scenario on the chaos sweep's elastic
// fleet.
func FaultsWithSpec(setup ModelSetup, spec faults.Spec, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, recovery := range faultRecoveries() {
		cells = append(cells, Cell{scenario: "custom", recovery: recovery})
	}
	return runGrid("faults", opts, cells, func(c Cell) (RunSpec, error) {
		return faultRun(setup, spec, c.scenario, c.recovery, opts)
	})
}

// faultCell describes one (scenario, recovery) chaos cell. Crash and straggler
// run on the elastic colocated fleet (so a crash also exercises
// autoscale-driven replacement); the link scenario runs on a static 2P2D
// disaggregated fleet where every finished request crossed the faulted
// fabric. Workload seeding is shared across a scenario's cells, so every
// recovery mode faces the same requests at the same instants.
func faultCell(setup ModelSetup, scenario, recovery string, opts RunOptions) (RunSpec, error) {
	spec, err := faultSpec(scenario, opts.Duration)
	if err != nil {
		return RunSpec{}, err
	}
	return faultRun(setup, spec, scenario, recovery, opts)
}

// faultRun is the shared cell description: the fleet (elastic colocated
// under the rate-prop autoscaler, or static 2P2D disagg for the link
// scenario), the injector, and the scenario-independent arrival stream at
// the scenario's operating point.
func faultRun(setup ModelSetup, spec faults.Spec, scenario, recovery string, opts RunOptions) (RunSpec, error) {
	rec, err := faults.ParseRecovery(recovery)
	if err != nil {
		return RunSpec{}, err
	}
	run := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Roles: make([]cluster.Role, FaultFleet), Router: FaultRouter,
		Controls: Controls{Faults: spec, Recovery: rec},
		Open:     &OpenLoad{Profile: "constant", RPS: FaultMeanRPS(setup, scenario), Salt: 0xfa}}
	if scenario == "link" {
		if run.Roles, err = cluster.ParseSplit("2P2D"); err != nil {
			return RunSpec{}, err
		}
	} else {
		run.Controls.Policy = "rate-prop"
		run.InitialActive = FaultInitialActive
	}
	return run, nil
}

// FaultsTable prints the chaos sweep as one table per scenario: a row per
// recovery mode, a column per headline metric. Goodput and attainment count
// lost-and-never-recovered requests as violations, so the recovery rows
// show directly what re-dispatch buys back; maxTTFT is the tail hedging
// exists to bound.
var FaultsTable = Table[Cell]{
	section: func(c Cell) string { return fmt.Sprintf("== scenario %s (%s) ==", c.scenario, c.Sum.Faults.Spec) },
	row:     axis[Cell]{name: "recovery", width: -14, label: func(c Cell) string { return c.recovery }},
	columns: sumCols(10, "%.2f", "goodput", "attain%", "maxTTFT", "p99TPOT", "lost", "retried", "dropped", "hedged", "fallback", "MTTR"),
}
