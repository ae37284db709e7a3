package sim

import (
	"strings"
	"testing"

	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/sched"
)

func testSystem(t *testing.T, kvTokens int) sched.System {
	t.Helper()
	target := lm.MustSyntheticLM("t", 1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM("d", target, 0.88, 2)
	eng := engine.MustNew(engine.Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       3,
	})
	sys, err := sched.NewVLLM(sched.Config{
		Engine:   eng,
		KV:       kvcache.MustNew(kvcache.ConfigForTokens(kvTokens, 16)),
		MaxBatch: 32, MaxPrefillTokens: 2048, SchedOverhead: 30e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func mkReqs(n int, gap float64) []*request.Request {
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 64, 8, uint64(i)*13+1)
	}
	return reqs
}

func TestRunCompletesAllRequests(t *testing.T) {
	sys := testSystem(t, 100000)
	reqs := mkReqs(10, 0.1)
	res, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Finished != 10 {
		t.Fatalf("finished %d of 10", res.Summary.Finished)
	}
	if res.EndTime <= 0 || res.Iterations <= 0 {
		t.Fatalf("degenerate result %+v", res)
	}
	for _, r := range reqs {
		if r.Phase != request.Done {
			t.Fatalf("request %d phase %s", r.ID, r.Phase)
		}
	}
}

func TestRunHandlesIdleGaps(t *testing.T) {
	// Arrivals separated by long gaps: the simulator must jump the clock.
	sys := testSystem(t, 100000)
	reqs := mkReqs(3, 100.0)
	res, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime < 200 {
		t.Fatalf("clock did not advance across gaps: end %.1f", res.EndTime)
	}
	// With near-zero load every request should attain.
	if res.Summary.Attainment() != 1 {
		t.Fatalf("attainment %.2f at zero load", res.Summary.Attainment())
	}
}

func TestRunValidatesRequests(t *testing.T) {
	sys := testSystem(t, 100000)
	bad := request.New(1, request.Chat, 0, 0, 64, 8, 1)
	if _, err := Run(sys, []*request.Request{bad}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	// KV too small for the request: admission can never succeed.
	sys := testSystem(t, 32)
	reqs := []*request.Request{request.New(1, request.Chat, 0.05, 0, 64, 8, 1)}
	_, err := Run(sys, reqs)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestRunDefaultBoundsPermitNormalRuns(t *testing.T) {
	// Run uses the generous driver defaults, not zero budgets.
	sys := testSystem(t, 100000)
	if _, err := Run(sys, mkReqs(3, 0.05)); err != nil {
		t.Fatalf("default bounds aborted a normal run: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (float64, int) {
		sys := testSystem(t, 100000)
		reqs := mkReqs(20, 0.05)
		res, err := Run(sys, reqs)
		if err != nil {
			t.Fatal(err)
		}
		return res.EndTime, res.Iterations
	}
	e1, i1 := run()
	e2, i2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("runs diverged: (%g,%d) vs (%g,%d)", e1, i1, e2, i2)
	}
}

func TestRunBreakdownAccumulates(t *testing.T) {
	sys := testSystem(t, 100000)
	reqs := mkReqs(5, 0.05)
	res, err := Run(sys, reqs)
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	if b.Verification <= 0 || b.Prefill <= 0 || b.Scheduling <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// vLLM does not speculate.
	if b.Speculation != 0 {
		t.Fatalf("vLLM reported speculation time %g", b.Speculation)
	}
	// Total busy time cannot exceed the simulated span.
	if b.Total() > res.EndTime {
		t.Fatalf("busy %.3fs exceeds wall %.3fs", b.Total(), res.EndTime)
	}
}

func TestRunArrivalsVisibleAtBoundaries(t *testing.T) {
	// A request arriving mid-iteration must not be admitted until the
	// iteration after its arrival: its AdmitTime >= its ArrivalTime.
	sys := testSystem(t, 100000)
	reqs := mkReqs(10, 0.013)
	if _, err := Run(sys, reqs); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.AdmitTime < r.ArrivalTime {
			t.Fatalf("request %d admitted at %.3f before arrival %.3f",
				r.ID, r.AdmitTime, r.ArrivalTime)
		}
	}
}
