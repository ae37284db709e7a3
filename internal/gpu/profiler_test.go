package gpu

import "testing"

func TestProfileCostModel(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	p, err := ProfileCostModel(cm, 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p.Base <= 0 || p.slope <= 0 || p.Knee <= 0 {
		t.Fatalf("degenerate fit: %+v", p)
	}
	// The fit comes from the sweep 1, 2, ..., 2048.
	points := 0
	for tok := 1; tok <= 2048; tok = nextSweepPoint(tok) {
		points++
	}
	if points < 20 {
		t.Fatalf("too few profile points: %d", points)
	}
}

func TestProfileRejectsTinySweep(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	if _, err := ProfileCostModel(cm, 4, 0); err == nil {
		t.Fatal("sweep of 4 tokens should be rejected")
	}
}

func TestProfilePredictionsTrackModel(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	p, err := ProfileCostModel(cm, 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, tok := range []int{1, 64, 256, 1024} {
		pred := p.Latency(tok)
		actual := cm.ForwardLatencyPure(BatchShape{Tokens: tok, Seqs: tok, KVTokens: tok * 512})
		ratio := pred / actual
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("at %d tokens: predicted %.2fms vs actual %.2fms (ratio %.2f)",
				tok, 1e3*pred, 1e3*actual, ratio)
		}
	}
}

func TestProfileLatencyMonotone(t *testing.T) {
	cm := MustCostModel(A100, Qwen32B, 2)
	p, err := ProfileCostModel(cm, 1024, 256)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for tok := 0; tok <= 1024; tok += 32 {
		l := p.Latency(tok)
		if l < prev {
			t.Fatalf("profile latency decreased at %d tokens", tok)
		}
		prev = l
	}
	if p.Latency(0) != 0 {
		t.Error("zero tokens should cost zero")
	}
}

func TestBudgetForRoundTrips(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	p, err := ProfileCostModel(cm, 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, factor := range []float64{1.2, 1.5, 2.0, 3.0} {
		target := factor * p.Base
		b := p.BudgetFor(target)
		if b < 1 {
			t.Fatalf("factor %.1f: budget %d < 1", factor, b)
		}
		if got := p.Latency(b); got > target*1.02 {
			t.Errorf("factor %.1f: budget %d predicted latency %.2fms exceeds target %.2fms",
				factor, b, 1e3*got, 1e3*target)
		}
	}
	// Infeasible target returns the minimum.
	if b := p.BudgetFor(p.Base / 2); b != 1 {
		t.Errorf("sub-base target should yield budget 1, got %d", b)
	}
}

func TestBudgetGrowsWithTarget(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	p, err := ProfileCostModel(cm, 2048, 512)
	if err != nil {
		t.Fatal(err)
	}
	if p.BudgetFor(2*p.Base) <= p.BudgetFor(1.2*p.Base) {
		t.Fatal("looser target should allow a larger budget")
	}
}
