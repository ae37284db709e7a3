package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
)

// AdaptiveFleet is the flash-crowd experiment's fixed fleet: small enough
// that the burst genuinely saturates it, so the comparison isolates what the
// runtime controller buys when scaling out is not an option (or has not
// happened yet — the cold-start gap admission control covers).
const AdaptiveFleet = 2

// AdaptiveRouter fronts every configuration of the sweep; the router is held
// fixed so the cells differ only in the control loop.
const AdaptiveRouter = "slo-aware"

// adaptiveProfiles are the arrival shapes of the flash-crowd sweep. The
// spike profile's burst (~5.6x the mean) is the overload the admission gate
// exists for.
func adaptiveProfiles() []string { return []string{"spike"} }

// adaptiveConfigs are the control configurations under comparison: the
// static AdaServe baseline, closed-loop speculation tuning alone, and tuning
// plus the overload admission gate.
func adaptiveConfigs() []string { return []string{"static", "adaptive", "adaptive+admission"} }

// AdaptiveMeanRPS sizes the offered load: the mean sits at the fleet's
// contended-but-serviceable operating point, so the baseline phases are
// healthy and the burst pushes far past capacity.
func AdaptiveMeanRPS(setup ModelSetup) float64 {
	return AdaptiveFleet * ClusterPerReplicaRPS(setup)
}

// adaptiveInterval is the controller's retune/calibration cadence: twice the
// autoscaler's decision rate, since retuning a scheduler parameter is free
// compared to provisioning a replica.
func adaptiveInterval(duration float64) float64 { return duration / 60 }

// AdaptiveControl runs the flash-crowd experiment: static AdaServe against
// the closed-loop controller (with and without admission) on an identical
// open-loop arrival stream per profile. The headline is goodput under
// overload with a bounded worst-case TTFT: tuning narrows the speculation
// envelope when acceptance drops, and the gate sheds load the fleet provably
// cannot serve instead of letting it poison every queued request behind it.
func AdaptiveControl(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, profile := range adaptiveProfiles() {
		for _, config := range adaptiveConfigs() {
			cells = append(cells, Cell{config: config, profile: profile})
		}
	}
	return runGrid("adaptive", opts, cells, func(c Cell) (RunSpec, error) {
		return adaptiveCell(setup, c.config, c.profile, opts)
	})
}

// AdaptiveConfig resolves a control configuration to a controller config
// (nil for the static baseline): the three sweep configurations, plus
// "admission" — the overload gate with speculation tuning off, which the
// trace sweep and adaserve-sim's -admission run. The one place
// adaptive.Config is built, so the CLI and every sweep run identical
// controllers.
func AdaptiveConfig(config string, duration float64) (*adaptive.Config, error) {
	cfg := &adaptive.Config{Interval: adaptiveInterval(duration), Window: AutoscaleWindow(duration)}
	switch config {
	case "static":
		return nil, nil
	case "adaptive":
		cfg.DisableAdmission = true
	case "admission":
		cfg.DisableTuning = true
	case "adaptive+admission":
	default:
		return nil, fmt.Errorf("experiments: unknown adaptive config %q (want one of %s, admission)",
			config, strings.Join(adaptiveConfigs(), ", "))
	}
	return cfg, nil
}

// adaptiveCell describes one configuration over the profile's open-loop
// arrival stream. Workload seeding is shared across the profile's cells,
// so every configuration faces the same requests at the same instants;
// what differs is only what the controller does about them.
func adaptiveCell(setup ModelSetup, config, profile string, opts RunOptions) (RunSpec, error) {
	cfg, err := AdaptiveConfig(config, opts.Duration)
	if err != nil {
		return RunSpec{}, err
	}
	return RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Roles: make([]cluster.Role, AdaptiveFleet), Router: AdaptiveRouter,
		Controls: Controls{Adaptive: cfg},
		Open:     &OpenLoad{Profile: profile, RPS: AdaptiveMeanRPS(setup), Salt: 0xada}}, nil
}

// AdaptiveTable prints the flash-crowd sweep as one table per profile: a
// row per configuration, a column per headline metric. Goodput counts only
// admitted requests (rejected ones never produce tokens), so the admission
// row trades a visible rejected count for goodput and tail bounds.
var AdaptiveTable = Table[Cell]{
	section: func(c Cell) string { return "== profile " + c.profile + " ==" },
	row:     axis[Cell]{name: "config", width: -20, label: func(c Cell) string { return c.config }},
	columns: sumCols(12, "%.2f", "goodput", "attain%", "maxTTFT", "p50TPOT", "p99TPOT", "p999TPOT", "maxTPOT", "degraded", "rejected"),
}
