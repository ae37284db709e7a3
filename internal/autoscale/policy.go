// Package autoscale is the elastic-fleet control loop: a Controller that
// observes a serving run's event stream through rolling windows and resizes
// an elastic cluster (internal/cluster's replica lifecycle) at deterministic
// event-time instants, under a pluggable scaling Policy bounded by
// hysteresis.
//
// The split mirrors production autoscalers (SLOs-Serve, AIBrix): policies
// are pure functions from observed signals to a desired replica count, so
// they are trivially comparable under identical traffic; everything
// stateful — decision cadence, cooldowns, scale-step bounds,
// sustained-headroom counting — lives in the Controller, applied
// identically to every policy.
package autoscale

import (
	"fmt"
	"math"
)

// signals is one role pool's observed state at a decision instant: what a
// Policy decides from. All windowed quantities come from the controller's
// rolling views over the event stream; occupancy comes from the cluster.
type signals struct {
	// committed counts the pool's active plus provisioning replicas: the
	// capacity the pool will have once cold starts complete (draining
	// replicas are already leaving).
	committed int
	// queuedTokens is the outstanding work on the pool's active replicas:
	// prompt backlog for a prefill pool, total remaining tokens otherwise.
	queuedTokens int
	// arrivalRate is the offered load in requests/second over the trailing
	// window.
	arrivalRate float64
	// serviceRate is the estimated per-replica sustainable service rate in
	// requests/second (peak observed so far; 0 until the first window with
	// finishes calibrates it).
	serviceRate float64
	// WindowAttainment/WindowTTFTAttainment are the TPOT and TTFT SLO
	// attainment over requests finishing in the trailing window;
	// WindowFinished is their denominator (0 means no signal).
	windowAttainment     float64
	windowTTFTAttainment float64
	windowFinished       int
}

// utilization estimates the pool's load factor: offered request rate over
// committed service capacity (0 when uncalibrated).
func (s signals) utilization() float64 {
	if s.serviceRate <= 0 || s.committed == 0 {
		return 0
	}
	return s.arrivalRate / (s.serviceRate * float64(s.committed))
}

// Policy maps observed signals to the pool's desired committed replica
// count. Implementations must be pure and deterministic: identical signals
// yield identical desires, so policies are comparable under identical
// traffic. The controller owns all hysteresis (cooldowns, step bounds,
// sustained-headroom counting, min/max clamps).
type Policy interface {
	// Name identifies the policy in reports and events.
	Name() string
	// desired returns the pool's desired committed replica count; the
	// controller clamps and rate-limits it.
	desired(sig signals) int
}

// defaultQueueTarget is targetQueue's per-replica queued-token budget: about
// one contended replica's worth of resident work at the evaluated loads, so
// backlog past it means requests are waiting on capacity rather than being
// served.
const defaultQueueTarget = 2048

// targetQueue scales to hold queued work near a per-replica target: desired
// replicas = ceil(queued tokens / target). The simplest production policy
// (queue-depth targeting); reacts fast to bursts because backlog is the
// first signal to move, but cannot see SLO pressure that shows up as
// latency before it shows up as queueing.
type targetQueue struct {
	// tokensPerReplica is the queued-token budget one replica is expected
	// to absorb (0: defaultQueueTarget).
	tokensPerReplica int
}

// Name implements Policy.
func (targetQueue) Name() string { return "target-queue" }

// desired implements Policy.
func (p targetQueue) desired(sig signals) int {
	target := p.tokensPerReplica
	if target <= 0 {
		target = defaultQueueTarget
	}
	return (sig.queuedTokens + target - 1) / target
}

// defaultRateHeadroom is rateProportional's provisioning margin over the
// measured offered load.
const defaultRateHeadroom = 1.15

// rateProportional scales proportionally to offered load (AIBrix-style):
// desired replicas = ceil(arrival-rate EWMA x headroom / measured
// per-replica service rate). Tracks sustained load shifts (diurnal swells)
// smoothly but lags spikes by the window width; until the first completed
// window calibrates the service rate it holds the fleet steady.
type rateProportional struct {
	// headroom is the capacity margin over measured load
	// (0: defaultRateHeadroom).
	headroom float64
}

// Name implements Policy.
func (rateProportional) Name() string { return "rate-prop" }

// desired implements Policy.
func (p rateProportional) desired(sig signals) int {
	if sig.serviceRate <= 0 {
		return sig.committed
	}
	headroom := p.headroom
	if headroom <= 0 {
		headroom = defaultRateHeadroom
	}
	return int(math.Ceil(sig.arrivalRate * headroom / sig.serviceRate))
}

// Defaults for sloFeedback: scale up below 95% windowed attainment, scale
// down only under half-utilized capacity.
const (
	defaultAttainmentTarget = 0.95
	defaultHeadroomUtil     = 0.5
)

// sloFeedback scales on the serving outcome itself: one replica up whenever
// windowed SLO attainment (the worse of TPOT and TTFT) drops below target,
// one down under sustained headroom — attainment at target while measured
// utilization sits below the headroom threshold. Closest to what the
// operator actually wants (attainment per dollar), but reacts a window
// later than queue depth moves.
type sloFeedback struct {
	// target is the windowed attainment floor (0: defaultAttainmentTarget).
	target float64
	// headroom is the utilization below which capacity is considered idle
	// enough to shrink (0: defaultHeadroomUtil).
	headroom float64
}

// Name implements Policy.
func (sloFeedback) Name() string { return "slo-feedback" }

// desired implements Policy.
func (p sloFeedback) desired(sig signals) int {
	target := p.target
	if target <= 0 {
		target = defaultAttainmentTarget
	}
	headroom := p.headroom
	if headroom <= 0 {
		headroom = defaultHeadroomUtil
	}
	if sig.windowFinished > 0 {
		att := sig.windowAttainment
		if sig.windowTTFTAttainment < att {
			att = sig.windowTTFTAttainment
		}
		if att < target {
			return sig.committed + 1
		}
	}
	if sig.utilization() < headroom {
		return sig.committed - 1
	}
	return sig.committed
}

// PolicyNames lists the built-in scaling policies accepted by NewPolicy.
func PolicyNames() []string { return []string{"target-queue", "rate-prop", "slo-feedback"} }

// NewPolicy builds a built-in policy by name with default parameters.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "target-queue":
		return targetQueue{}, nil
	case "rate-prop":
		return rateProportional{}, nil
	case "slo-feedback":
		return sloFeedback{}, nil
	default:
		return nil, fmt.Errorf("autoscale: unknown policy %q (have %v)", name, PolicyNames())
	}
}
