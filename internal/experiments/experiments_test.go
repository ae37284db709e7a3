package experiments

import (
	"strings"
	"testing"

	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

func TestSetupsMatchTable1(t *testing.T) {
	setups := Setups()
	if len(setups) != 2 {
		t.Fatalf("%d setups", len(setups))
	}
	l := setups[0]
	if l.TargetTP != 4 || !strings.Contains(l.Name, "70B") {
		t.Fatalf("Llama setup %+v", l)
	}
	q := setups[1]
	if q.TargetTP != 2 || !strings.Contains(q.Name, "32B") {
		t.Fatalf("Qwen setup %+v", q)
	}
	for _, s := range setups {
		if gpu.MustCostModel(s.HW, s.draft, 1).BaselineLatency(512) >= s.BaselineLatency() {
			t.Errorf("%s: a draft step is not cheaper than a target step", s.Name)
		}
		if s.alpha <= 0 || s.alpha > 1 {
			t.Errorf("%s: alpha %g", s.Name, s.alpha)
		}
	}
}

func TestBaselineLatencyBands(t *testing.T) {
	// The calibration anchors: ~33ms for 70B/4xA100, ~29ms for 32B/2xA100.
	l := Llama70B().BaselineLatency()
	if l < 0.025 || l > 0.045 {
		t.Fatalf("Llama baseline %.1fms", 1e3*l)
	}
	q := qwen32B().BaselineLatency()
	if q < 0.020 || q > 0.040 {
		t.Fatalf("Qwen baseline %.1fms", 1e3*q)
	}
}

func TestBuildAllSystems(t *testing.T) {
	setup := Llama70B()
	kinds := append(endToEndSystems(), SysVLLMPriority, SysFastServe, SysVTC)
	for _, kind := range kinds {
		sys, err := Build(kind, setup, BuildOptions{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if sys.Name() != string(kind) {
			t.Errorf("built %q for kind %q", sys.Name(), kind)
		}
	}
	if _, err := Build("nope", setup, BuildOptions{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildSystemsRunEndToEnd(t *testing.T) {
	setup := Llama70B()
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, 7)
	if err != nil {
		t.Fatal(err)
	}
	ts := workload.PoissonTrace(mathutil.NewRNG(11), 2.0, 10)
	reqs := gen.FromTimestamps(ts)
	if len(reqs) == 0 {
		t.Fatal("empty trace")
	}
	for _, kind := range []SystemKind{SysAdaServe, SysVLLM, SysVLLMSpec4} {
		sum := runSpec(t, RunSpec{Kind: kind, Setup: setup, Seed: 1, Requests: reqs}, nil).Summary.Aggregate
		if sum.Finished != len(reqs) {
			t.Fatalf("%s finished %d of %d", kind, sum.Finished, len(reqs))
		}
	}
}

func TestRunOneIsolatesRequestState(t *testing.T) {
	setup := Llama70B()
	gen, _ := NewGenerator(setup, workload.DefaultMix, 1.0, 7)
	reqs := gen.FromTimestamps([]float64{0, 0.1, 0.2})
	runSpec(t, RunSpec{Kind: SysVLLM, Setup: setup, Seed: 1, Requests: reqs}, nil)
	// The caller's requests must be untouched (copies were served).
	for _, r := range reqs {
		if r.Phase != request.Queued || r.OutputLen() != 0 {
			t.Fatal("a run mutated its spec's requests")
		}
	}
}

func TestFigure15BreakdownShape(t *testing.T) {
	sum, err := Figure15(Llama70B(), RunOptions{Seed: 1, Duration: 15})
	if err != nil {
		t.Fatal(err)
	}
	share := sum.Breakdown.SchedulingShare()
	if share <= 0 || share > 0.01 {
		t.Fatalf("scheduling share %.3f%% outside (0, 1%%]", 100*share)
	}
	if sum.Breakdown.Speculation <= 0 || sum.Breakdown.Verification <= 0 {
		t.Fatal("missing speculation/verification components")
	}
}

func TestFigure1RunsBaselines(t *testing.T) {
	pts, err := Figure1(Llama70B(), RunOptions{Seed: 1, Duration: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(figure1Systems()) {
		t.Fatalf("%d points", len(pts))
	}
	for _, p := range pts {
		if p.Sum.Aggregate.Requests == 0 {
			t.Fatalf("%s served nothing", p.System)
		}
		// Figure 1's workload holds only categories 1 and 2.
		if cs, ok := p.Sum.Aggregate.PerCategory[request.Summarization]; ok && cs.Requests > 0 {
			t.Fatalf("%s served summarization requests in a 2-category workload", p.System)
		}
	}
}

func TestFigure13and14TraceShape(t *testing.T) {
	pts, err := Figure13and14(Llama70B(), RunOptions{
		Seed: 1, Duration: 30,
		systems: []SystemKind{SysAdaServe, SysVLLM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	var ada, vllm *metrics.Summary
	for _, p := range pts {
		switch p.System {
		case SysAdaServe:
			ada = p.Sum.Aggregate
		case SysVLLM:
			vllm = p.Sum.Aggregate
		}
	}
	// Figure 14's headline: AdaServe tops vLLM under the bursty trace.
	if ada.Attainment() <= vllm.Attainment() {
		t.Fatalf("AdaServe %.2f <= vLLM %.2f under synthetic trace",
			ada.Attainment(), vllm.Attainment())
	}
}

func TestRenderSeries(t *testing.T) {
	pts := []Cell{
		{System: SysVLLM, x: 1, Sum: &metrics.ClusterSummary{Aggregate: &metrics.Summary{System: "vLLM", Requests: 10, Attained: 5}}},
		{System: SysVLLM, x: 2, Sum: &metrics.ClusterSummary{Aggregate: &metrics.Summary{System: "vLLM", Requests: 10, Attained: 8}}},
	}
	out := SeriesTable("rps", "attainment", func(s *metrics.Summary) float64 {
		return s.Attainment()
	}).Render(pts)
	if !strings.Contains(out, "vLLM") || !strings.Contains(out, "0.50") || !strings.Contains(out, "0.80") {
		t.Fatalf("rendered:\n%s", out)
	}
}

func TestRPSSweeps(t *testing.T) {
	l := rpsSweepsForSetup(Llama70B())
	if l[0] != 2.6 || l[len(l)-1] != 4.8 {
		t.Fatalf("Llama sweep %v", l)
	}
	q := rpsSweepsForSetup(qwen32B())
	if q[0] != 2.4 || q[len(q)-1] != 4.2 {
		t.Fatalf("Qwen sweep %v", q)
	}
}

// smoke-check one tiny Figure 8 cell end to end on a single system.
func TestFigure8SingleCell(t *testing.T) {
	setup := Llama70B()
	reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, 3.0, 10, 1)
	res := runSpec(t, RunSpec{Kind: SysAdaServe, Setup: setup, Seed: 1, Requests: reqs}, err)
	if res.Summary.Attainment() < 0.5 {
		t.Fatalf("attainment %.2f at light load", res.Summary.Attainment())
	}
}

// runSpec runs a described run (failing on err, the describing call's
// error) and returns its outcome.
func runSpec(t *testing.T, spec RunSpec, err error) *Outcome {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	return out
}
