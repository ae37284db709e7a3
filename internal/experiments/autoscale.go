package experiments

import (
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/workload"
)

// AutoscaleFleet is the autoscaling experiment's capacity fleet: the static
// baseline runs this many replicas the whole time; elastic configurations
// may scale within it.
const AutoscaleFleet = 4

// autoscaleProfiles are the arrival shapes of the autoscaling sweep: the
// two time-varying loads where a fixed fleet wastes the most capacity.
func autoscaleProfiles() []string { return []string{"spike", "diurnal"} }

// AutoscaleConfigs are the fleet-sizing configurations under comparison:
// the equal-peak static fleet plus every built-in scaling policy.
func AutoscaleConfigs() []string {
	return append([]string{"static"}, autoscale.PolicyNames()...)
}

// AutoscaleMeanRPS sizes the experiment's offered load: the profile's peak
// rate equals the capacity fleet running at the replica-scaling experiment's
// contended-but-serviceable per-replica operating point — i.e. the static
// fleet is exactly peak-provisioned, the deployment a peak-capacity planner
// would run.
func AutoscaleMeanRPS(setup ModelSetup, profile string) (float64, error) {
	peak, err := workload.RateProfilePeakFactor(profile)
	if err != nil {
		return 0, err
	}
	return AutoscaleFleet * ClusterPerReplicaRPS(setup) / peak, nil
}

// Autoscale control-loop timing, derived from the run duration so short
// test runs and full-length sweeps keep the same proportions: decisions
// every 1/30th of the run, a cold start of 1/20th (model load + KV
// allocation), rolling windows of 1/8th.
func AutoscaleInterval(duration float64) float64  { return duration / 30 }
func AutoscaleColdStart(duration float64) float64 { return duration / 20 }
func AutoscaleWindow(duration float64) float64    { return duration / 8 }

// Autoscaling runs the elastic-fleet experiment: the equal-peak static
// cluster against every scaling policy, under the spike and diurnal arrival
// profiles and each router, at identical offered load (every cell of one
// profile consumes the identical open-loop arrival stream). The comparison
// metric is goodput per replica-second: a static fleet holds peak capacity
// through the troughs, an autoscaled fleet gives it back.
func Autoscaling(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	var cells []Cell
	for _, profile := range autoscaleProfiles() {
		for _, config := range AutoscaleConfigs() {
			for _, routerName := range cluster.RouterNames() {
				cells = append(cells, Cell{config: config, profile: profile, router: routerName})
			}
		}
	}
	return runGrid("autoscale", opts, cells, func(c Cell) (RunSpec, error) {
		return autoscaleCell(setup, c.config, c.profile, c.router, opts)
	})
}

// autoscaleCell describes one configuration over the profile's open-loop
// arrival stream: a static capacity fleet, or (under a scaling policy) an
// elastic one starting from a single replica. The workload is seeded
// identically across cells (matching adaserve-sim's open-loop seeding), so
// every cell of one profile faces the same requests at the same instants.
func autoscaleCell(setup ModelSetup, config, profile, routerName string, opts RunOptions) (RunSpec, error) {
	mean, err := AutoscaleMeanRPS(setup, profile)
	if err != nil {
		return RunSpec{}, err
	}
	spec := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: opts.Seed, Duration: opts.Duration,
		Roles: make([]cluster.Role, AutoscaleFleet), Router: routerName,
		Controls: Controls{Policy: config},
		Open:     &OpenLoad{Profile: profile, RPS: mean, Salt: 0x51e}}
	if config != "static" {
		spec.InitialActive = 1
	}
	return spec, nil
}

// AutoscaleTable prints the autoscaling experiment per profile — goodput
// per replica-second (the headline), attainment, replica-seconds consumed,
// and scale events — one row per configuration and one column per router.
var AutoscaleTable = Table[Cell]{
	section: func(c Cell) string { return "== profile " + c.profile + " ==" },
	row:     axis[Cell]{name: "config", width: -14, label: func(c Cell) string { return c.config }},
	cols:    routerCols,
	columns: sumCols(0, "%.2f", "goodput / replica-second", "attainment %", "replica-seconds", "scale events (up+down)"),
}
