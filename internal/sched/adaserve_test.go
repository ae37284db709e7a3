package sched

import (
	"testing"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/request"
)

func newAdaServe(t *testing.T, opts AdaServeOptions) *AdaServe {
	t.Helper()
	sys, err := NewAdaServe(testConfig(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestAdaServeConstruction(t *testing.T) {
	a := newAdaServe(t, AdaServeOptions{})
	if a.Name() != "AdaServe" {
		t.Fatalf("name %q", a.Name())
	}
	if a.verifyBudget <= 0 {
		t.Fatal("no profiled budget")
	}
	if a.profile == nil || a.profile.Base <= 0 {
		t.Fatal("no profile")
	}
	if a.controller.Validate() != nil {
		t.Fatal("invalid controller")
	}
}

// TestAdaServeClampSpecEnvelope pins the actuation contract the adaptive
// controller relies on: retuned ceilings are clipped to the constructed
// envelope (never above it, never below DMin/1), and a later clamp can
// restore what an earlier one took away.
func TestAdaServeClampSpecEnvelope(t *testing.T) {
	a := newAdaServe(t, AdaServeOptions{})
	d0, w0 := a.SpecEnvelope()
	if d0 != a.controller.DMax || w0 != a.controller.WMax {
		t.Fatalf("envelope (%d,%d) disagrees with controller (%d,%d)", d0, w0, a.controller.DMax, a.controller.WMax)
	}
	a.ClampSpecEnvelope(d0+5, w0+5)
	if d, w := a.SpecEnvelope(); d != d0 || w != w0 {
		t.Fatalf("clamp exceeded the constructed envelope: (%d,%d) vs (%d,%d)", d, w, d0, w0)
	}
	a.ClampSpecEnvelope(-3, 0)
	if d, w := a.SpecEnvelope(); d != a.controller.DMin || w != 1 {
		t.Fatalf("clamp broke the floor: (%d,%d), want (%d,1)", d, w, a.controller.DMin)
	}
	a.ClampSpecEnvelope(d0, w0)
	if d, w := a.SpecEnvelope(); d != d0 || w != w0 {
		t.Fatalf("clamp could not restore the envelope: (%d,%d) vs (%d,%d)", d, w, d0, w0)
	}
}

func TestAdaServeRequiresDraft(t *testing.T) {
	cfg := testConfig(t)
	eng, err := engine.New(engine.Config{
		Target:     lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02),
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engine = eng
	if _, err := NewAdaServe(cfg, AdaServeOptions{}); err == nil {
		t.Fatal("draftless AdaServe accepted")
	}
}

func TestAdaServeSpeculativeIteration(t *testing.T) {
	a := newAdaServe(t, AdaServeOptions{})
	r := enqueue(a, 1, request.Coding, 0.04, 0, 64, 40)
	st := a.Iterate(0) // prefill
	if st.PrefillTime <= 0 {
		t.Fatal("expected prefill pass first")
	}
	now := st.Elapsed
	st = a.Iterate(now)
	if st.SpecTime <= 0 || st.VerifyTime <= 0 || st.SchedCPU <= 0 {
		t.Fatalf("decode iteration missing phases: %+v", st)
	}
	if st.TokensCommitted < 1 {
		t.Fatal("no tokens committed")
	}
	if r.VerifySteps != 1 {
		t.Fatal("verify steps not counted")
	}
	// One decode iteration over the one request: it speculated at some
	// depth and had at least the request's root token of budget.
	if a.Debug.DecodeIters != 1 || a.Debug.SumDepth < 1 || a.Debug.SumBudget < 1 {
		t.Fatalf("debug stats %+v", a.Debug)
	}
}

func TestAdaServeCommitsMoreThanVLLM(t *testing.T) {
	// The core speedup claim: same request stream, AdaServe finishes with
	// far fewer decode iterations per token than vanilla continuous
	// batching (acc > 1).
	a := newAdaServe(t, AdaServeOptions{})
	ra := enqueue(a, 1, request.Coding, 0.04, 0, 64, 60)
	drain(t, a, 500)
	accA := float64(ra.AcceptedTokens) / float64(ra.VerifySteps)
	if accA < 2.0 {
		t.Fatalf("AdaServe mean accepted %.2f, want > 2", accA)
	}
}

func TestAdaServeBudgetScalesUnderLoad(t *testing.T) {
	a := newAdaServe(t, AdaServeOptions{})
	a.tokensPerRequest = 4
	n := a.verifyBudget // enough requests that n*4 > profiled budget
	for i := 0; i < n; i++ {
		enqueue(a, i+1, request.Chat, 0.05, 0, 16, 4)
	}
	// Prefill everyone, then one decode iteration.
	now := 0.0
	for a.Pool().NumRunning() == 0 || len(a.Pool().PrefillingRequests()) > 0 {
		st := a.Iterate(now)
		now += st.Elapsed
	}
	a.Debug = AdaServeDebug{}
	batch := len(a.Pool().DecodingRequests()) // the iteration's decode batch
	st := a.Iterate(now)
	if st.Idle || batch == 0 {
		t.Fatal("no decode work")
	}
	if a.Debug.SumBudget < batch*4 {
		t.Fatalf("budget %d below 4x batch %d", a.Debug.SumBudget, batch)
	}
}

func TestAdaServeAdaptiveDepthShrinksWithLoad(t *testing.T) {
	// Few requests -> deep speculation; many requests -> shallow.
	light := newAdaServe(t, AdaServeOptions{})
	enqueue(light, 1, request.Chat, 0.05, 0, 16, 4)
	now := light.Iterate(0).Elapsed
	light.Iterate(now)
	lightDepth := light.Debug.SumDepth

	heavy := newAdaServe(t, AdaServeOptions{})
	for i := 0; i < 80; i++ {
		enqueue(heavy, i+1, request.Chat, 0.05, 0, 16, 4)
	}
	now = 0.0
	for len(heavy.Pool().PrefillingRequests()) > 0 || heavy.Pool().NumRunning() == 0 {
		st := heavy.Iterate(now)
		now += st.Elapsed
	}
	heavy.Debug = AdaServeDebug{}
	heavy.Iterate(now)
	heavyDepth := heavy.Debug.SumDepth / heavy.Debug.DecodeIters

	if heavyDepth >= lightDepth {
		t.Fatalf("depth did not shrink with load: light %d heavy %d", lightDepth, heavyDepth)
	}
}

func TestAdaServeSLOCustomization(t *testing.T) {
	// Under budget scarcity, urgent requests must receive more verification
	// tokens per iteration than relaxed ones (fine-grained decoding-speed
	// control): force scarcity by capping the budget near one token per
	// request, so only the SLO-customized phase differentiates.
	a := newAdaServe(t, AdaServeOptions{})
	a.verifyBudget = 15 // 12 roots + only 3 extra tokens per iteration
	a.tokensPerRequest = 1
	var urgent, relaxed []*request.Request
	for i := 0; i < 6; i++ {
		urgent = append(urgent, enqueue(a, i, request.Coding, 0.04, 0, 64, 48))
		relaxed = append(relaxed, enqueue(a, 100+i, request.Summarization, 2.0, 0, 64, 48))
	}
	drain(t, a, 5000)
	acc := func(rs []*request.Request) float64 {
		var tok, steps int
		for _, r := range rs {
			tok += r.AcceptedTokens
			steps += r.VerifySteps
		}
		return float64(tok) / float64(steps)
	}
	accUrgent, accRelaxed := acc(urgent), acc(relaxed)
	if accUrgent <= accRelaxed*1.1 {
		t.Fatalf("urgent served at %.2f tok/step, relaxed at %.2f — no SLO customization",
			accUrgent, accRelaxed)
	}
}

func TestAdaServeCoBatchedPrefillDoesNotStallDecode(t *testing.T) {
	a := newAdaServe(t, AdaServeOptions{})
	r := enqueue(a, 1, request.Coding, 0.04, 0, 32, 30)
	now := a.Iterate(0).Elapsed
	// Get r decoding.
	st := a.Iterate(now)
	now += st.Elapsed
	// A long prompt arrives; decode iterations must continue committing
	// while its prefill advances in the same passes.
	long := enqueue(a, 2, request.Summarization, 0.15, now, 1500, 8)
	sawBoth := false
	for i := 0; i < 30 && (long.Phase == request.Queued || long.Phase == request.Prefilling); i++ {
		before := long.PrefillDone
		st = a.Iterate(now)
		now += st.Elapsed
		if st.TokensCommitted > 0 && long.PrefillDone > before {
			sawBoth = true
		}
	}
	if !sawBoth {
		t.Fatal("no iteration advanced decode and prefill together")
	}
	_ = r
}

func TestAdaServeStaticControllerAblation(t *testing.T) {
	ctrl := core.StaticController(3, 2)
	a := newAdaServe(t, AdaServeOptions{Controller: &ctrl})
	for i := 0; i < 12; i++ {
		enqueue(a, i+1, request.Chat, 0.05, 0, 16, 6)
	}
	now := 0.0
	for len(a.Pool().PrefillingRequests()) > 0 || a.Pool().NumRunning() == 0 {
		st := a.Iterate(now)
		now += st.Elapsed
	}
	a.Debug = AdaServeDebug{}
	// The width shows in the draft time: it equals a depth-3 width-2 beam
	// over the same batch on a fresh engine.
	ref, err := testConfig(t).Engine.SpeculateBeams(a.Pool().DecodingRequests(), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := a.Iterate(now)
	if a.Debug.SumDepth != 3 || st.SpecTime != ref.GPUTime {
		t.Fatalf("static controller produced d=%d, draft time %g, want d=3 and the (3, 2) beam's %g",
			a.Debug.SumDepth, st.SpecTime, ref.GPUTime)
	}
}

func TestAdaServeSchedulingOverheadTiny(t *testing.T) {
	// Figure 15: CPU scheduling must be a sub-percent share of serving
	// time.
	a := newAdaServe(t, AdaServeOptions{})
	for i := 0; i < 8; i++ {
		enqueue(a, i+1, request.Chat, 0.05, float64(i)*0.01, 64, 24)
	}
	var sched, total float64
	now := 0.0
	for i := 0; i < 2000; i++ {
		st := a.Iterate(now)
		if st.Idle {
			break
		}
		now += st.Elapsed
		sched += st.SchedCPU
		total += st.Elapsed
	}
	if share := sched / total; share > 0.01 {
		t.Fatalf("scheduling share %.2f%% exceeds 1%%", 100*share)
	}
}
