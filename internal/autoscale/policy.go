// Package autoscale is the elastic-fleet control loop: a Controller that
// observes a serving run's event stream through rolling windows and resizes
// an elastic cluster (internal/cluster's replica lifecycle) at deterministic
// event-time instants, under a pluggable scaling Policy bounded by
// hysteresis.
//
// The split mirrors production autoscalers (SLOs-Serve, AIBrix): policies
// are pure functions from observed Signals to a desired replica count, so
// they are trivially comparable under identical traffic; everything
// stateful — decision cadence, cooldowns, scale-step bounds,
// sustained-headroom counting — lives in the Controller, applied
// identically to every policy.
package autoscale

import (
	"fmt"
	"math"
)

// Signals is one role pool's observed state at a decision instant: what a
// Policy decides from. All windowed quantities come from the controller's
// rolling views over the event stream; occupancy comes from the cluster.
type Signals struct {
	// Committed counts the pool's active plus provisioning replicas: the
	// capacity the pool will have once cold starts complete (draining
	// replicas are already leaving).
	Committed int
	// QueuedTokens is the outstanding work on the pool's active replicas:
	// prompt backlog for a prefill pool, total remaining tokens otherwise.
	QueuedTokens int
	// ArrivalRate is the offered load in requests/second over the trailing
	// window.
	ArrivalRate float64
	// ServiceRate is the estimated per-replica sustainable service rate in
	// requests/second (peak observed so far; 0 until the first window with
	// finishes calibrates it).
	ServiceRate float64
	// WindowAttainment/WindowTTFTAttainment are the TPOT and TTFT SLO
	// attainment over requests finishing in the trailing window;
	// WindowFinished is their denominator (0 means no signal).
	WindowAttainment     float64
	WindowTTFTAttainment float64
	WindowFinished       int
}

// Utilization estimates the pool's load factor: offered request rate over
// committed service capacity (0 when uncalibrated).
func (s Signals) Utilization() float64 {
	if s.ServiceRate <= 0 || s.Committed == 0 {
		return 0
	}
	return s.ArrivalRate / (s.ServiceRate * float64(s.Committed))
}

// Policy maps observed Signals to the pool's desired committed replica
// count. Implementations must be pure and deterministic: identical Signals
// yield identical desires, so policies are comparable under identical
// traffic. The controller owns all hysteresis (cooldowns, step bounds,
// sustained-headroom counting, min/max clamps).
type Policy interface {
	// Name identifies the policy in reports and events.
	Name() string
	// Desired returns the pool's desired committed replica count; the
	// controller clamps and rate-limits it.
	Desired(sig Signals) int
}

// DefaultQueueTarget is TargetQueue's per-replica queued-token budget: about
// one contended replica's worth of resident work at the evaluated loads, so
// backlog past it means requests are waiting on capacity rather than being
// served.
const DefaultQueueTarget = 2048

// TargetQueue scales to hold queued work near a per-replica target: desired
// replicas = ceil(queued tokens / target). The simplest production policy
// (queue-depth targeting); reacts fast to bursts because backlog is the
// first signal to move, but cannot see SLO pressure that shows up as
// latency before it shows up as queueing.
type TargetQueue struct {
	// TokensPerReplica is the queued-token budget one replica is expected
	// to absorb (0: DefaultQueueTarget).
	TokensPerReplica int
}

// Name implements Policy.
func (TargetQueue) Name() string { return "target-queue" }

// Desired implements Policy.
func (p TargetQueue) Desired(sig Signals) int {
	target := p.TokensPerReplica
	if target <= 0 {
		target = DefaultQueueTarget
	}
	return (sig.QueuedTokens + target - 1) / target
}

// DefaultRateHeadroom is RateProportional's provisioning margin over the
// measured offered load.
const DefaultRateHeadroom = 1.15

// RateProportional scales proportionally to offered load (AIBrix-style):
// desired replicas = ceil(arrival-rate EWMA x headroom / measured
// per-replica service rate). Tracks sustained load shifts (diurnal swells)
// smoothly but lags spikes by the window width; until the first completed
// window calibrates the service rate it holds the fleet steady.
type RateProportional struct {
	// Headroom is the capacity margin over measured load
	// (0: DefaultRateHeadroom).
	Headroom float64
}

// Name implements Policy.
func (RateProportional) Name() string { return "rate-prop" }

// Desired implements Policy.
func (p RateProportional) Desired(sig Signals) int {
	if sig.ServiceRate <= 0 {
		return sig.Committed
	}
	headroom := p.Headroom
	if headroom <= 0 {
		headroom = DefaultRateHeadroom
	}
	return int(math.Ceil(sig.ArrivalRate * headroom / sig.ServiceRate))
}

// Defaults for SLOFeedback: scale up below 95% windowed attainment, scale
// down only under half-utilized capacity.
const (
	DefaultAttainmentTarget = 0.95
	DefaultHeadroomUtil     = 0.5
)

// SLOFeedback scales on the serving outcome itself: one replica up whenever
// windowed SLO attainment (the worse of TPOT and TTFT) drops below target,
// one down under sustained headroom — attainment at target while measured
// utilization sits below the headroom threshold. Closest to what the
// operator actually wants (attainment per dollar), but reacts a window
// later than queue depth moves.
type SLOFeedback struct {
	// Target is the windowed attainment floor (0: DefaultAttainmentTarget).
	Target float64
	// Headroom is the utilization below which capacity is considered idle
	// enough to shrink (0: DefaultHeadroomUtil).
	Headroom float64
}

// Name implements Policy.
func (SLOFeedback) Name() string { return "slo-feedback" }

// Desired implements Policy.
func (p SLOFeedback) Desired(sig Signals) int {
	target := p.Target
	if target <= 0 {
		target = DefaultAttainmentTarget
	}
	headroom := p.Headroom
	if headroom <= 0 {
		headroom = DefaultHeadroomUtil
	}
	if sig.WindowFinished > 0 {
		att := sig.WindowAttainment
		if sig.WindowTTFTAttainment < att {
			att = sig.WindowTTFTAttainment
		}
		if att < target {
			return sig.Committed + 1
		}
	}
	if sig.Utilization() < headroom {
		return sig.Committed - 1
	}
	return sig.Committed
}

// PolicyNames lists the built-in scaling policies accepted by NewPolicy.
func PolicyNames() []string { return []string{"target-queue", "rate-prop", "slo-feedback"} }

// NewPolicy builds a built-in policy by name with default parameters.
func NewPolicy(name string) (Policy, error) {
	switch name {
	case "target-queue":
		return TargetQueue{}, nil
	case "rate-prop":
		return RateProportional{}, nil
	case "slo-feedback":
		return SLOFeedback{}, nil
	default:
		return nil, fmt.Errorf("autoscale: unknown policy %q (have %v)", name, PolicyNames())
	}
}
