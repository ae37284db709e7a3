// Package adaptive closes the serving control loop the paper's Eq. 8–9
// leaves open: AdaServe sizes speculation per iteration against STATIC
// SLOs, but acceptance rates drift with workload and no speculation policy
// survives genuine overload. The package provides a runtime
// serve.AdmissionController with two coupled halves:
//
//   - Speculation tuning: per SLO class, rolling acceptance rate and
//     windowed TPOT attainment map to a (depth, width) envelope; the
//     controller clamps every tunable system's Eq. 8–9 ceilings to the
//     tightest envelope any active class justifies
//     (sched.AdaServe.ClampSpecEnvelope). Drafting deeper than the measured
//     acceptance supports wastes draft time and verification budget.
//
//   - Overload admission: every arrival is decided against fleet saturation
//     signals (queued requests per active replica, windowed arrival rate vs
//     calibrated service rate) before it is routed. Saturated fleets admit
//     at reduced service — request degraded to the best-effort class with
//     speculation disabled — and past the reject threshold turn arrivals
//     away, recorded as RequestDegraded/RequestRejected events with
//     metrics.AdmissionSummary rollups. Requests whose TTFT deadline is
//     already provably unmeetable are rejected outright: their SLO is lost
//     either way, and shedding them protects everyone behind them.
//
// The admission gate also covers the autoscaler's cold-start gap: queue
// pressure is normalized by ACTIVE replicas, so while a scaled-up replica
// provisions (committed > active) the gate tightens exactly when capacity
// is promised but not yet serving, and relaxes by itself the moment the
// replica warms.
//
// The decision laws are pure functions of explicit signal structs
// (Envelope, Decide), which is what the property and fuzz
// tests pin: monotonicity (lower acceptance never raises a cap, more
// saturation never loosens admission), bounded actuation, and
// never-reject-below-saturation / never-admit-provably-unmeetable.
package adaptive

import (
	"fmt"
	"math"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// DefaultInterval is the retune cadence in simulated seconds.
const DefaultInterval = 1.0

// The tuning and admission laws' fixed parameters.
const (
	// MinEnvelope is the smallest depth and width ceiling the tuner sets.
	MinEnvelope = 1
	// DefaultDepthTail is the end-to-end chain acceptance probability below
	// which deeper drafting stops paying.
	DefaultDepthTail = 0.2
	// DefaultAttainLow is the windowed TPOT attainment below which a class's
	// width cap loses a lane (budget goes to guaranteed tokens instead of
	// wide trees).
	DefaultAttainLow = 0.9
	// DefaultQueueDegrade/DefaultQueueReject are the saturation thresholds
	// in queued (waiting, unstarted) requests per active replica: at
	// DefaultQueueDegrade the gate degrades degradable arrivals (when
	// offered load also exceeds calibrated capacity), at DefaultQueueReject
	// it rejects.
	DefaultQueueDegrade = 3.0
	DefaultQueueReject  = 10.0
	// DefaultBestEffortTPOT is the TPOT SLO degraded requests relax to: the
	// batch-tolerant summarization class's 150 ms/token.
	DefaultBestEffortTPOT = 0.150
)

// untunedDepth/untunedWidth are the envelope an admission-only controller
// reports when no controlled system is tunable; it never actuates them.
const (
	untunedDepth = 8
	untunedWidth = 4
)

// Config tunes the closed-loop controller. The zero value resolves to the
// defaults; the envelope ceilings come from the controlled system.
type Config struct {
	// Interval is the retune cadence in simulated seconds
	// (0: DefaultInterval). Decisions land on the interval grid, evaluated
	// at the first iteration boundary past each grid instant.
	Interval float64
	// Window is the trailing-window width for rolling signals
	// (0: serve.DefaultSnapshotWindow).
	Window float64

	// DisableTuning turns off the speculation half of the loop;
	// DisableAdmission turns off the gate (every arrival admitted as
	// submitted). At most one may be set.
	DisableTuning    bool
	DisableAdmission bool
}

// fill resolves zero values to the defaults.
func (c *Config) fill() {
	if c.Interval == 0 {
		c.Interval = DefaultInterval
	}
	if c.Window == 0 {
		c.Window = serve.DefaultSnapshotWindow
	}
}

// validate checks a filled config.
func (c Config) validate() error {
	if c.Interval < 0 || c.Window < 0 {
		return fmt.Errorf("adaptive: negative interval or window")
	}
	if c.DisableTuning && c.DisableAdmission {
		return fmt.Errorf("adaptive: both tuning and admission disabled; drop the controller instead")
	}
	return nil
}

// ClassSignals are one SLO class's windowed measurements, the input to the
// envelope law.
type ClassSignals struct {
	// Finished is the class's windowed finish count; zero means the class
	// is uncalibrated and keeps the full envelope.
	Finished int
	// Acceptance is the class's mean accepted tokens per verification step
	// over the window.
	Acceptance float64
	// Attainment is the class's windowed TPOT attainment fraction.
	Attainment float64
}

// Envelope maps one class's rolling signals to its speculation ceilings —
// the pure law behind the tuner, exercised directly by the property tests.
//
// Depth follows a geometric-chain view of acceptance: mean accepted tokens
// per step m implies a per-position acceptance probability p = m/(1+m)
// (the mean of a truncated geometric), and the deepest chain worth
// drafting keeps its end-to-end acceptance p^d above DefaultDepthTail.
// Width grants one lane per accepted token per step, minus one while the
// class misses the DefaultAttainLow attainment floor (budget is better
// spent on guaranteed tokens than wide trees). depthMax and widthMax are
// the controlled system's constructed ceilings.
//
// The law is monotone — lower acceptance never raises either cap — and
// bounded: results always lie in [MinEnvelope,depthMax] x
// [MinEnvelope,widthMax].
func Envelope(sig ClassSignals, depthMax, widthMax int) (dmax, wmax int) {
	if sig.Finished <= 0 {
		return depthMax, widthMax
	}
	m := sig.Acceptance
	if m < 0 {
		m = 0
	}
	p := m / (1 + m)
	d := MinEnvelope
	if p > 0 {
		switch est := math.Log(DefaultDepthTail) / math.Log(p); {
		case est >= float64(depthMax):
			d = depthMax
		case est > MinEnvelope:
			d = int(est)
		}
	}
	w := 1 + int(m)
	if sig.Attainment < DefaultAttainLow {
		w--
	}
	return d, mathutil.ClipInt(w, MinEnvelope, widthMax)
}

// Signals is the fleet-level saturation view one admission decision is
// made against.
type Signals struct {
	// Queued counts waiting (not yet scheduled) requests across serving
	// instances.
	Queued int
	// Active counts replicas serving traffic now. Provisioning replicas are
	// paid for but not serving, so pressure is normalized by Active and the
	// gate tightens exactly through the autoscaler's cold-start gap.
	Active int
	// ArrivalRate is the offered load over the trailing window in req/s;
	// ServiceRate is the calibrated sustainable per-replica finish rate
	// (0 until calibrated).
	ArrivalRate, ServiceRate float64
	// PrefillBacklog is the queued prompt tokens across serving instances;
	// PrefillRate is the calibrated per-replica prompt-processing rate in
	// tokens/s (0 until calibrated). Together they lower-bound any new
	// arrival's achievable TTFT.
	PrefillBacklog int
	PrefillRate    float64
}

// QueuePressure returns queued requests per active replica: the primary
// saturation signal.
func (s Signals) QueuePressure() float64 {
	active := s.Active
	if active < 1 {
		active = 1
	}
	return float64(s.Queued) / float64(active)
}

// Overloaded reports whether windowed offered load exceeds the calibrated
// fleet capacity. An uncalibrated gate (ServiceRate 0) trusts queue
// pressure alone and reports true.
func (s Signals) Overloaded() bool {
	if s.ServiceRate <= 0 || s.Active <= 0 {
		return true
	}
	return s.ArrivalRate > s.ServiceRate*float64(s.Active)
}

// UnmeetableTTFT returns a conservative lower bound on the request's
// achievable TTFT and whether that bound already exceeds its TTFT SLO. The
// bound assumes the most optimistic schedule the fleet could possibly run:
// the entire active fleet prefilling at its calibrated peak rate, the
// queued prompt backlog ahead of the request, then the request's own
// prompt, with a free first decode step. A request this bound condemns
// cannot meet its deadline under ANY real schedule, so rejecting it sheds
// load without costing a single attainable SLO. Uncalibrated gates
// (PrefillRate 0) and requests without a TTFT SLO are never condemned.
func UnmeetableTTFT(sig Signals, r *request.Request) (float64, bool) {
	if r.TTFTSLO <= 0 || sig.PrefillRate <= 0 || sig.Active <= 0 {
		return 0, false
	}
	fleetRate := sig.PrefillRate * float64(sig.Active)
	bound := (float64(sig.PrefillBacklog) + float64(r.PromptLen)) / fleetRate
	return bound, bound > r.TTFTSLO
}

// Decide classifies one arrival against the saturation signals: the pure
// law behind Controller.Decide, exercised directly by the property and
// fuzz tests. It is monotone in saturation — raising Queued (or shrinking
// the active fleet, or raising the arrival rate) never loosens the
// outcome — and it rejects below the DefaultQueueReject saturation
// threshold only when the request's TTFT deadline is provably unmeetable.
func Decide(sig Signals, r *request.Request) (serve.AdmissionDecision, string) {
	if bound, doomed := UnmeetableTTFT(sig, r); doomed {
		return serve.AdmissionReject,
			fmt.Sprintf("ttft unmeetable: lower bound %.2fs > slo %.2fs (backlog %d tok / %d active)",
				bound, r.TTFTSLO, sig.PrefillBacklog, sig.Active)
	}
	qp := sig.QueuePressure()
	switch {
	case qp >= DefaultQueueReject:
		return serve.AdmissionReject,
			fmt.Sprintf("saturated: %.1f queued/active replica >= %.1f", qp, DefaultQueueReject)
	case qp >= DefaultQueueDegrade && sig.Overloaded() && !r.Degraded:
		return serve.AdmissionDegrade,
			fmt.Sprintf("overloaded: %.1f queued/active replica >= %.1f, %.2f req/s offered",
				qp, DefaultQueueDegrade, sig.ArrivalRate)
	default:
		return serve.AdmissionAdmit, ""
	}
}
