package adaptive

import (
	"strings"
	"testing"

	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// schedConfig builds the small scheduler substrate the controller tests run
// on (mirrors the sched package's own test fixture).
func schedConfig(t *testing.T) sched.Config {
	t.Helper()
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.88, 2)
	eng, err := engine.New(engine.Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sched.Config{
		Engine:           eng,
		KV:               kvcache.MustNew(kvcache.ConfigForTokens(200000, 16)),
		MaxBatch:         64,
		MaxPrefillTokens: 2048,
		SchedOverhead:    30e-6,
	}
}

func adaServe(t *testing.T) *sched.AdaServe {
	t.Helper()
	sys, err := sched.NewAdaServe(schedConfig(t), sched.AdaServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestNewValidation covers controller construction: backend required, a
// tuning controller needs a tunable system, an admission-only controller
// does not, and unset envelope bounds resolve from the controlled system.
func TestNewValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil || !strings.Contains(err.Error(), "backend") {
		t.Fatalf("nil backend: %v", err)
	}
	cfg := schedConfig(t)
	vllm, err := sched.NewVLLM(sched.Config{
		Engine: cfg.Engine, KV: cfg.KV, MaxBatch: cfg.MaxBatch,
		MaxPrefillTokens: cfg.MaxPrefillTokens, SchedOverhead: cfg.SchedOverhead,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(serve.SingleSystem(vllm), Config{}); err == nil || !strings.Contains(err.Error(), "no tunable") {
		t.Fatalf("tuning over vLLM: %v", err)
	}
	admOnly, err := New(serve.SingleSystem(vllm), Config{DisableTuning: true})
	if err != nil {
		t.Fatalf("admission-only over vLLM: %v", err)
	}
	if d, w := admOnly.depthMax, admOnly.widthMax; d < 1 || w < 1 {
		t.Fatalf("admission-only envelope (%d,%d) unresolved", d, w)
	}
	sys := adaServe(t)
	ctrl, err := New(serve.SingleSystem(sys), Config{})
	if err != nil {
		t.Fatal(err)
	}
	wantD, wantW := sys.SpecEnvelope()
	if d, w := ctrl.depthMax, ctrl.widthMax; d != wantD || w != wantW {
		t.Fatalf("ceilings (%d,%d) not read from the system's (%d,%d)", d, w, wantD, wantW)
	}
	if _, err := New(serve.SingleSystem(adaServe(t)), Config{DisableTuning: true, DisableAdmission: true}); err == nil {
		t.Fatal("fully disabled controller accepted")
	}
}

// TestControllerClosedLoop drives a real single-replica run through the
// controller with tight thresholds: a burst of simultaneous arrivals must
// walk the gate through admit -> degrade -> reject as the queue builds, a
// later provably-unmeetable deadline must be rejected by the calibrated
// bound, the summary must partition the offered load, and the retuned
// envelope must stay inside its bounds.
func TestControllerClosedLoop(t *testing.T) {
	sys := adaServe(t)
	d0, w0 := sys.SpecEnvelope()
	backend := serve.SingleSystem(sys)
	ctrl, err := New(backend, Config{Interval: 0.05, Window: 1.0})
	if err != nil {
		t.Fatal(err)
	}

	var reqs []*request.Request
	for i := 0; i < 24; i++ {
		r := request.New(i, request.Category(i%request.NumCategories), 0.05, 0, 64, 24, uint64(i)*977+5)
		r.TTFTSLO = 10.0
		reqs = append(reqs, r)
	}
	// A late arrival with an absurd TTFT deadline: by its arrival the gate
	// has calibrated a prefill rate, so the optimistic bound condemns it.
	doomed := request.New(24, request.Chat, 0.05, 3.0, 2048, 24, 99)
	doomed.TTFTSLO = 1e-4
	reqs = append(reqs, doomed)

	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(backend, serve.Options{Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}
	var degradeEvents, rejectEvents int
	var unmeetable bool
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.RequestDegraded:
			degradeEvents++
		case serve.RequestRejected:
			rejectEvents++
			if strings.Contains(e.Reason, "ttft unmeetable") {
				unmeetable = true
				if e.Req.ID != doomed.ID {
					t.Errorf("unmeetable reject hit request %d, want %d", e.Req.ID, doomed.ID)
				}
			}
		}
	}))
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}

	sum := ctrl.Summary()
	if sum.Offered != len(reqs) {
		t.Fatalf("offered %d, want %d", sum.Offered, len(reqs))
	}
	if sum.Offered != sum.Admitted+sum.Degraded+sum.Rejected {
		t.Fatalf("summary does not partition the offered load: %+v", sum)
	}
	if sum.Degraded == 0 || sum.Rejected == 0 {
		t.Fatalf("burst tripped neither gate action: %+v", sum)
	}
	if sum.Degraded != degradeEvents || sum.Rejected != rejectEvents {
		t.Fatalf("events (%d degraded, %d rejected) disagree with summary %+v",
			degradeEvents, rejectEvents, sum)
	}
	if !unmeetable {
		t.Error("calibrated gate never rejected the provably unmeetable deadline")
	}
	var perClass int
	for _, cls := range sum.PerClass {
		perClass += cls.Offered
	}
	if perClass != sum.Offered {
		t.Fatalf("per-class split %d does not cover %d offered", perClass, sum.Offered)
	}
	d, w := sys.SpecEnvelope()
	if d < minEnvelope || d > d0 || w < minEnvelope || w > w0 {
		t.Fatalf("actuated envelope (%d,%d) escaped bounds [%d,%d]x[%d,%d]",
			d, w, minEnvelope, d0, minEnvelope, w0)
	}
}

// TestControllerTuningShrinksOnLowAcceptance feeds the controller synthetic
// finish events directly: a class finishing with near-zero acceptance must
// pull the actuated envelope below the constructed ceilings, and recovered
// acceptance must widen it again — never beyond the bounds.
func TestControllerTuningShrinksOnLowAcceptance(t *testing.T) {
	sys := adaServe(t)
	ctrl, err := New(serve.SingleSystem(sys), Config{Interval: 1.0, Window: 4.0, DisableAdmission: true})
	if err != nil {
		t.Fatal(err)
	}
	d0, w0 := sys.SpecEnvelope()
	if d0 != ctrl.depthMax || w0 != ctrl.widthMax {
		t.Fatalf("envelope (%d,%d) before any tick, want the ceilings (%d,%d)", d0, w0, ctrl.depthMax, ctrl.widthMax)
	}

	finish := func(id int, at float64, steps, accepted int) {
		r := request.New(id, request.Chat, 0.05, at-1, 64, 8, uint64(id))
		r.DoneTime = at
		r.VerifySteps = steps
		r.AcceptedTokens = accepted
		ctrl.OnEvent(serve.RequestFinished{
			EventMeta: serve.EventMeta{Time: at},
			Req:       r, Attained: true, TTFTAttained: true,
		})
	}
	for i := 0; i < 10; i++ {
		finish(i, 0.5, 10, 11) // acceptance ~1.1: barely worth drafting deep
	}
	ctrl.Tick(1.0)
	// The system's envelope is the actuated one: a shrink shows there.
	d1, w1 := sys.SpecEnvelope()
	if d1 >= d0 {
		t.Fatalf("low acceptance did not shrink depth: %d -> %d", d0, d1)
	}
	if w1 > w0 {
		t.Fatalf("low acceptance widened the envelope: %d -> %d", w0, w1)
	}

	// Recovery: the old window ages out, high acceptance takes over.
	for i := 100; i < 110; i++ {
		finish(i, 6.0, 10, 60) // acceptance 6.0
	}
	ctrl.Tick(7.0)
	d2, w2 := sys.SpecEnvelope()
	if d2 <= d1 || w2 < w1 {
		t.Fatalf("recovered acceptance did not widen the envelope: (%d,%d) -> (%d,%d)", d1, w1, d2, w2)
	}
	if d2 > d0 || w2 > w0 {
		t.Fatalf("envelope (%d,%d) escaped the constructed ceilings (%d,%d)", d2, w2, d0, w0)
	}
}
