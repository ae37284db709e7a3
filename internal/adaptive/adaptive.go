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
// (envelope, Decide), which is what the property and fuzz
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

// defaultInterval is the retune cadence in simulated seconds.
const defaultInterval = 1.0

// The tuning and admission laws' fixed parameters.
const (
	// minEnvelope is the smallest depth and width ceiling the tuner sets.
	minEnvelope = 1
	// defaultDepthTail is the end-to-end chain acceptance probability below
	// which deeper drafting stops paying.
	defaultDepthTail = 0.2
	// defaultAttainLow is the windowed TPOT attainment below which a class's
	// width cap loses a lane (budget goes to guaranteed tokens instead of
	// wide trees).
	defaultAttainLow = 0.9
	// defaultQueueDegrade/defaultQueueReject are the saturation thresholds
	// in queued (waiting, unstarted) requests per active replica: at
	// defaultQueueDegrade the gate degrades degradable arrivals (when
	// offered load also exceeds calibrated capacity), at defaultQueueReject
	// it rejects.
	defaultQueueDegrade = 3.0
	defaultQueueReject  = 10.0
	// defaultBestEffortTPOT is the TPOT SLO degraded requests relax to: the
	// batch-tolerant summarization class's 150 ms/token.
	defaultBestEffortTPOT = 0.150
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
	// (0: defaultInterval). Decisions land on the interval grid, evaluated
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
		c.Interval = defaultInterval
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

// classSignals are one SLO class's windowed measurements, the input to the
// envelope law.
type classSignals struct {
	// finished is the class's windowed finish count; zero means the class
	// is uncalibrated and keeps the full envelope.
	finished int
	// acceptance is the class's mean accepted tokens per verification step
	// over the window.
	acceptance float64
	// attainment is the class's windowed TPOT attainment fraction.
	attainment float64
}

// envelope maps one class's rolling signals to its speculation ceilings —
// the pure law behind the tuner, exercised directly by the property tests.
//
// Depth follows a geometric-chain view of acceptance: mean accepted tokens
// per step m implies a per-position acceptance probability p = m/(1+m)
// (the mean of a truncated geometric), and the deepest chain worth
// drafting keeps its end-to-end acceptance p^d above defaultDepthTail.
// Width grants one lane per accepted token per step, minus one while the
// class misses the defaultAttainLow attainment floor (budget is better
// spent on guaranteed tokens than wide trees). depthMax and widthMax are
// the controlled system's constructed ceilings.
//
// The law is monotone — lower acceptance never raises either cap — and
// bounded: results always lie in [minEnvelope,depthMax] x
// [minEnvelope,widthMax].
func envelope(sig classSignals, depthMax, widthMax int) (dmax, wmax int) {
	if sig.finished <= 0 {
		return depthMax, widthMax
	}
	m := sig.acceptance
	if m < 0 {
		m = 0
	}
	p := m / (1 + m)
	d := minEnvelope
	if p > 0 {
		switch est := math.Log(defaultDepthTail) / math.Log(p); {
		case est >= float64(depthMax):
			d = depthMax
		case est > minEnvelope:
			d = int(est)
		}
	}
	w := 1 + int(m)
	if sig.attainment < defaultAttainLow {
		w--
	}
	return d, mathutil.ClipInt(w, minEnvelope, widthMax)
}

// signals is the fleet-level saturation view one admission decision is
// made against.
type signals struct {
	// queued counts waiting (not yet scheduled) requests across serving
	// instances.
	queued int
	// active counts replicas serving traffic now. Provisioning replicas are
	// paid for but not serving, so pressure is normalized by active and the
	// gate tightens exactly through the autoscaler's cold-start gap.
	active int
	// arrivalRate is the offered load over the trailing window in req/s;
	// serviceRate is the calibrated sustainable per-replica finish rate
	// (0 until calibrated).
	arrivalRate, serviceRate float64
	// prefillBacklog is the queued prompt tokens across serving instances;
	// prefillRate is the calibrated per-replica prompt-processing rate in
	// tokens/s (0 until calibrated). Together they lower-bound any new
	// arrival's achievable TTFT.
	prefillBacklog int
	prefillRate    float64
}

// queuePressure returns queued requests per active replica: the primary
// saturation signal.
func (s signals) queuePressure() float64 {
	active := s.active
	if active < 1 {
		active = 1
	}
	return float64(s.queued) / float64(active)
}

// overloaded reports whether windowed offered load exceeds the calibrated
// fleet capacity. An uncalibrated gate (serviceRate 0) trusts queue
// pressure alone and reports true.
func (s signals) overloaded() bool {
	if s.serviceRate <= 0 || s.active <= 0 {
		return true
	}
	return s.arrivalRate > s.serviceRate*float64(s.active)
}

// unmeetableTTFT returns a conservative lower bound on the request's
// achievable TTFT and whether that bound already exceeds its TTFT SLO. The
// bound assumes the most optimistic schedule the fleet could possibly run:
// the entire active fleet prefilling at its calibrated peak rate, the
// queued prompt backlog ahead of the request, then the request's own
// prompt, with a free first decode step. A request this bound condemns
// cannot meet its deadline under ANY real schedule, so rejecting it sheds
// load without costing a single attainable SLO. Uncalibrated gates
// (prefillRate 0) and requests without a TTFT SLO are never condemned.
func unmeetableTTFT(sig signals, r *request.Request) (float64, bool) {
	if r.TTFTSLO <= 0 || sig.prefillRate <= 0 || sig.active <= 0 {
		return 0, false
	}
	fleetRate := sig.prefillRate * float64(sig.active)
	bound := (float64(sig.prefillBacklog) + float64(r.PromptLen)) / fleetRate
	return bound, bound > r.TTFTSLO
}

// decide classifies one arrival against the saturation signals: the pure
// law behind Controller.Decide, exercised directly by the property and
// fuzz tests. It is monotone in saturation — raising queued (or shrinking
// the active fleet, or raising the arrival rate) never loosens the
// outcome — and it rejects below the defaultQueueReject saturation
// threshold only when the request's TTFT deadline is provably unmeetable.
func decide(sig signals, r *request.Request) (serve.AdmissionDecision, string) {
	if bound, doomed := unmeetableTTFT(sig, r); doomed {
		return serve.AdmissionReject,
			fmt.Sprintf("ttft unmeetable: lower bound %.2fs > slo %.2fs (backlog %d tok / %d active)",
				bound, r.TTFTSLO, sig.prefillBacklog, sig.active)
	}
	qp := sig.queuePressure()
	switch {
	case qp >= defaultQueueReject:
		return serve.AdmissionReject,
			fmt.Sprintf("saturated: %.1f queued/active replica >= %.1f", qp, defaultQueueReject)
	case qp >= defaultQueueDegrade && sig.overloaded() && !r.Degraded:
		return serve.AdmissionDegrade,
			fmt.Sprintf("overloaded: %.1f queued/active replica >= %.1f, %.2f req/s offered",
				qp, defaultQueueDegrade, sig.arrivalRate)
	default:
		return serve.AdmissionAdmit, ""
	}
}
