package adaptive

import (
	"fmt"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// SpecTunable is a serving system whose speculation envelope the controller
// can actuate at runtime. sched.AdaServe implements it.
type SpecTunable interface {
	// SpecEnvelope returns the current depth and width ceilings.
	SpecEnvelope() (dmax, wmax int)
	// ClampSpecEnvelope retunes the ceilings, clipped to the system's
	// constructed bounds.
	ClampSpecEnvelope(dmax, wmax int)
}

// fleet is the optional replica-lifecycle view an elastic backend exposes
// (*cluster.Cluster implements it): how many replicas serve traffic now
// versus how many consume capacity. Backends without it (single systems,
// static clusters) count every instance as active.
type fleet interface {
	ActiveServing() int
	CommittedFleet() int
}

// Controller implements serve.AdmissionController: wire it into a run via
// serve.Options.Adaptive. It observes the event stream through per-class
// rolling windows, retunes every tunable system's speculation envelope at
// each interval-grid instant, and gates every arrival against the fleet's
// saturation signals. All decisions happen at deterministic instants in
// event-time order, so runs are reproducible under a fixed seed.
//
// Like the backends it controls, a Controller is single-use.
type Controller struct {
	cfg   Config
	insts []*serve.Instance
	tuned []SpecTunable
	fleet fleet

	next float64

	// window holds the per-class finish windows and the offered-load window
	// over every gated arrival.
	window *metrics.Rolling

	// Capacity calibration: peak per-replica finish and prompt-token rates
	// between ticks (underestimating capacity only over-gates, so the peak
	// is the safe side for the unmeetable-TTFT proof: a HIGHER assumed rate
	// condemns FEWER requests).
	service, prefill metrics.PeakRate

	// depthMax/widthMax are the first tunable system's constructed
	// ceilings.
	depthMax, widthMax int

	sum metrics.AdmissionSummary
}

// New builds a controller over a backend's instances. Unless tuning is
// disabled, at least one instance's system must be SpecTunable (AdaServe);
// the envelope ceilings are the first tunable system's constructed ones.
// If the backend is a fleet (elastic cluster), the gate normalizes
// saturation by its live active-replica count.
func New(backend serve.Backend, cfg Config) (*Controller, error) {
	if backend == nil {
		return nil, fmt.Errorf("adaptive: backend required")
	}
	insts := backend.Instances()
	if len(insts) == 0 {
		return nil, fmt.Errorf("adaptive: backend has no instances")
	}
	var tuned []SpecTunable
	for _, in := range insts {
		if t, ok := in.System().(SpecTunable); ok {
			tuned = append(tuned, t)
		}
	}
	if !cfg.DisableTuning && len(tuned) == 0 {
		return nil, fmt.Errorf("adaptive: no tunable system (speculation tuning needs AdaServe; set DisableTuning for admission-only control)")
	}
	depthMax, widthMax := untunedDepth, untunedWidth
	if len(tuned) > 0 {
		depthMax, widthMax = tuned[0].SpecEnvelope()
	}
	cfg.fill()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	fleet, _ := backend.(fleet)
	c := &Controller{
		cfg:      cfg,
		insts:    insts,
		tuned:    tuned,
		fleet:    fleet,
		next:     cfg.Interval,
		window:   metrics.NewRolling(cfg.Window),
		depthMax: depthMax,
		widthMax: widthMax,
	}
	return c, nil
}

// Summary returns the admission rollup so far.
func (c *Controller) Summary() metrics.AdmissionSummary { return c.sum }

// OnEvent implements serve.Observer: request finishes feed the per-class
// windows and the capacity calibration.
func (c *Controller) OnEvent(ev serve.Event) {
	e, ok := ev.(serve.RequestFinished)
	if !ok {
		return
	}
	c.window.Finished(e.Req)
	c.service.Add(1)
	c.prefill.Add(e.Req.PromptLen)
}

// billed returns the capacity-consuming replica count (calibration
// denominator).
func (c *Controller) billed() int {
	if c.fleet != nil {
		return c.fleet.CommittedFleet()
	}
	return len(c.insts)
}

// Tick implements serve.AdmissionController: between grid instants it does
// nothing; at each grid instant it recalibrates capacity and retunes every
// tunable system's speculation envelope.
func (c *Controller) Tick(now float64) {
	if now < c.next {
		return
	}
	for c.next <= now {
		c.next += c.cfg.Interval
	}
	// Calibrate: peak observed per-replica rates since the last tick.
	b := c.billed()
	c.service.Mark(now, b)
	c.prefill.Mark(now, b)

	if c.cfg.DisableTuning {
		return
	}
	classes := c.window.Windowed(now).PerClass
	// Each class with windowed traffic proposes an envelope; the fleet gets
	// the widest proposal (max is monotone in every class's signals, so the
	// per-class monotonicity law lifts to the actuated envelope). With no
	// calibrated class the constructed envelope stands.
	d, w, calibrated := minEnvelope, minEnvelope, false
	for _, cls := range classes {
		if cls.WindowFinished == 0 {
			continue
		}
		cd, cw := envelope(classSignals{
			finished:   cls.WindowFinished,
			acceptance: cls.WindowAcceptance(),
			attainment: cls.WindowAttainment(),
		}, c.depthMax, c.widthMax)
		if cd > d {
			d = cd
		}
		if cw > w {
			w = cw
		}
		calibrated = true
	}
	if !calibrated {
		d, w = c.depthMax, c.widthMax
	}
	for _, t := range c.tuned {
		t.ClampSpecEnvelope(d, w)
	}
}

// signals assembles the live saturation view for one admission decision.
func (c *Controller) signals(now float64) signals {
	queued, backlog := 0, 0
	for _, in := range c.insts {
		p := in.System().Pool()
		for _, r := range p.Waiting() {
			queued++
			backlog += r.RemainingPrefill()
		}
		for _, r := range p.Running() {
			backlog += r.RemainingPrefill()
		}
	}
	active := len(c.insts)
	if c.fleet != nil {
		active = c.fleet.ActiveServing()
	}
	return signals{
		queued: queued, active: active,
		arrivalRate: c.window.ArrivalRate(now), serviceRate: c.service.Peak(),
		prefillBacklog: backlog, prefillRate: c.prefill.Peak(),
	}
}

// Decide implements serve.AdmissionController: it records the offered
// arrival, evaluates the pure admission law against live signals, and
// applies the outcome (degrading the request in place when admitted at
// reduced service).
func (c *Controller) Decide(r *request.Request) (serve.AdmissionDecision, string) {
	c.window.Arrived(r)
	original := r.Category
	if c.cfg.DisableAdmission {
		c.sum.Add(original, true, false, false)
		return serve.AdmissionAdmit, ""
	}
	dec, reason := decide(c.signals(r.ArrivalTime), r)
	switch dec {
	case serve.AdmissionReject:
		c.sum.Add(original, false, false, true)
	case serve.AdmissionDegrade:
		r.Degrade(defaultBestEffortTPOT)
		c.sum.Add(original, false, true, false)
	default:
		c.sum.Add(original, true, false, false)
	}
	return dec, reason
}
