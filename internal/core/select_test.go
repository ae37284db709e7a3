package core

import (
	"math"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/toktree"
)

// candTree builds a 2-level candidate tree:
// root -> a(qa) -> c(qc), root -> b(qb).
func candTree(qa, qb, qc float64) *toktree.Tree {
	tr := toktree.NewTree(lm.Context{ReqSeed: 1}, 0)
	a := tr.AddChild(0, 10, qa)
	tr.AddChild(0, 11, qb)
	tr.AddChild(a, 12, qc)
	return tr
}

func TestSelectMeetsThresholdMinimally(t *testing.T) {
	// A(r) = 1.6: the root provides 1.0; one 0.7 node suffices (Figure 5's
	// A_cap(r0)=0.6 example, shifted by the root's contribution).
	tr := candTree(0.7, 0.2, 0.6)
	res, err := new(Selector).Select([]SelectRequest{{Cand: tr, MinAccept: 1.6}},
		SelectConfig{Budget: 2, Depth: 3, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selections[0].Size() != 2 {
		t.Fatalf("selected %d nodes, want 2", res.Selections[0].Size())
	}
	if res.expectedAccept[0] < capThreshold(1.6, 3) {
		t.Fatal("threshold should be satisfied")
	}
	if math.Abs(res.expectedAccept[0]-1.7) > 1e-9 {
		t.Fatalf("E[acc] = %g", res.expectedAccept[0])
	}
}

func TestSelectFigure5Scenario(t *testing.T) {
	// Reproduce the paper's Figure 5: two requests, budget 8.
	// r0: A_cap needs 1.6 total (root 1.0 + t1 0.7 suffices).
	// r1: A_cap needs 1.8 (root + 0.5 + 0.4).
	// Throughput phase then adds the globally best remaining nodes.
	r0 := toktree.NewTree(lm.Context{ReqSeed: 0}, 0)
	a0 := r0.AddChild(0, 1, 0.7)
	r0.AddChild(0, 2, 0.2)
	b0 := r0.AddChild(a0, 3, 0.6) // f=0.42
	r0.AddChild(a0, 4, 0.3)       // f=0.21
	r0.AddChild(b0, 5, 0.7)       // f=0.294
	r0.AddChild(b0, 6, 0.3)       // f=0.126

	r1 := toktree.NewTree(lm.Context{ReqSeed: 1}, 0)
	a1 := r1.AddChild(0, 1, 0.5)
	r1.AddChild(0, 2, 0.4)
	b1 := r1.AddChild(a1, 3, 0.7) // f=0.35
	r1.AddChild(a1, 4, 0.48)      // f=0.24
	r1.AddChild(b1, 5, 0.4)       // f=0.14
	r1.AddChild(b1, 6, 0.4)       // f=0.14

	res, err := new(Selector).Select([]SelectRequest{
		{Cand: r0, MinAccept: 1.6},
		{Cand: r1, MinAccept: 1.8},
	}, SelectConfig{Budget: 8, Depth: 3, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.BudgetUsed != 8 {
		t.Fatalf("budget used %d, want all 8", res.BudgetUsed)
	}
	if res.expectedAccept[0] < capThreshold(1.6, 3) || res.expectedAccept[1] < capThreshold(1.8, 3) {
		t.Fatal("both SLO thresholds should be met")
	}
	// r0 should hold root, t1 (0.7) and the throughput picks t3 (0.42) and
	// t5 (0.294); r1 holds root, t1 (0.5), t2 (0.4) and t3 (0.35).
	if got := res.Selections[0].Size(); got != 4 {
		t.Fatalf("r0 selected %d nodes, want 4", got)
	}
	if got := res.Selections[1].Size(); got != 4 {
		t.Fatalf("r1 selected %d nodes, want 4", got)
	}
	wantE0 := 1 + 0.7 + 0.42 + 0.294
	if math.Abs(res.expectedAccept[0]-wantE0) > 1e-9 {
		t.Fatalf("r0 E[acc] = %g, want %g", res.expectedAccept[0], wantE0)
	}
	wantE1 := 1 + 0.5 + 0.4 + 0.35
	if math.Abs(res.expectedAccept[1]-wantE1) > 1e-9 {
		t.Fatalf("r1 E[acc] = %g, want %g", res.expectedAccept[1], wantE1)
	}
}

func TestSelectHardestFirstUnderScarcity(t *testing.T) {
	// Budget only covers roots + 1 node; the request with the larger A(r)
	// must receive it.
	easy := candTree(0.9, 0.5, 0.8)
	hard := candTree(0.6, 0.3, 0.5)
	res, err := new(Selector).Select([]SelectRequest{
		{Cand: easy, MinAccept: 1.2},
		{Cand: hard, MinAccept: 2.5},
	}, SelectConfig{Budget: 3, Depth: 3, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Selections[1].Size() != 2 || res.Selections[0].Size() != 1 {
		t.Fatalf("scarce budget went to sizes %d/%d, want 1/2",
			res.Selections[0].Size(), res.Selections[1].Size())
	}
}

func TestSelectACapLimitsThreshold(t *testing.T) {
	// Depth 1 caps attainable accepts at 2; a huge A(r) must be capped and
	// satisfied once E[acc] reaches the cap.
	tr := candTree(0.9, 0.8, 0.7)
	res, err := new(Selector).Select([]SelectRequest{{Cand: tr, MinAccept: 50}},
		SelectConfig{Budget: 4, Depth: 1, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	// cap = min(50, 2) = 2; root(1) + 0.9 = 1.9 < 2, + 0.8 = 2.7 >= 2.
	if res.expectedAccept[0] < capThreshold(50, 1) {
		t.Fatalf("capped threshold should be reachable; E=%g", res.expectedAccept[0])
	}
}

func TestSelectPerRequestMax(t *testing.T) {
	tr := candTree(0.9, 0.8, 0.85)
	res, err := new(Selector).Select([]SelectRequest{{Cand: tr, MinAccept: 10}},
		SelectConfig{Budget: 10, Depth: 3, PerRequestMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	// n_max = 2 (root + 1) during the SLO phase; the throughput phase may
	// then add more — but only the SLO phase is bounded by n_max, matching
	// Algorithm 2 where the cap guards the threshold-chasing loop.
	if res.Selections[0].Size() < 2 {
		t.Fatal("selection below n_max")
	}
}

func TestSelectBudgetNeverExceeded(t *testing.T) {
	trees := []SelectRequest{
		{Cand: candTree(0.9, 0.8, 0.7), MinAccept: 3},
		{Cand: candTree(0.6, 0.5, 0.4), MinAccept: 3},
		{Cand: candTree(0.3, 0.2, 0.1), MinAccept: 3},
	}
	for budget := 3; budget <= 12; budget++ {
		res, err := new(Selector).Select(trees, SelectConfig{Budget: budget, Depth: 2, PerRequestMax: 4})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, s := range res.Selections {
			total += s.Size()
		}
		if total != res.BudgetUsed {
			t.Fatalf("budget accounting mismatch: %d vs %d", total, res.BudgetUsed)
		}
		if total > budget {
			t.Fatalf("budget %d exceeded: %d", budget, total)
		}
	}
}

func TestSelectRejectsBudgetBelowRoots(t *testing.T) {
	trees := []SelectRequest{
		{Cand: candTree(0.9, 0.8, 0.7)},
		{Cand: candTree(0.6, 0.5, 0.4)},
	}
	if _, err := new(Selector).Select(trees, SelectConfig{Budget: 1, Depth: 2, PerRequestMax: 4}); err == nil {
		t.Fatal("budget below one root per request accepted")
	}
}

func TestSelectRejectsNegativeDepth(t *testing.T) {
	trees := []SelectRequest{{Cand: candTree(0.9, 0.8, 0.7)}}
	if _, err := new(Selector).Select(trees, SelectConfig{Budget: 4, Depth: -1, PerRequestMax: 4}); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestSelectSelectionsAreValidTrees(t *testing.T) {
	trees := []SelectRequest{
		{Cand: candTree(0.9, 0.8, 0.7), MinAccept: 2.0},
		{Cand: candTree(0.6, 0.5, 0.4), MinAccept: 1.2},
	}
	res, err := new(Selector).Select(trees, SelectConfig{Budget: 7, Depth: 2, PerRequestMax: 6})
	if err != nil {
		t.Fatal(err)
	}
	// A selection is a greedy-order prefix: it must hold every selected
	// node's parent, and its size must be what the budget paid for.
	total := 0
	for i, s := range res.Selections {
		cand := trees[i].Cand
		in := make([]bool, cand.Size())
		for _, id := range cand.Order()[:s.Size()] {
			in[id] = true
		}
		for p, n := range cand.Nodes {
			for _, c := range n.Children {
				if in[c] && !in[p] {
					t.Fatalf("selection %d holds node %d without its parent %d", i, c, p)
				}
			}
		}
		total += s.Size()
	}
	if total != res.BudgetUsed {
		t.Fatalf("selections hold %d nodes, budget used %d", total, res.BudgetUsed)
	}
}

func TestSelectThroughputPhaseGlobalOrder(t *testing.T) {
	// With no SLO pressure, the throughput phase must pick the globally
	// highest-f nodes across requests.
	rich := candTree(0.9, 0.85, 0.8) // f: 0.9, 0.85, 0.72
	poor := candTree(0.3, 0.2, 0.1)  // f: 0.3, 0.2, 0.03
	res, err := new(Selector).Select([]SelectRequest{
		{Cand: rich, MinAccept: 0},
		{Cand: poor, MinAccept: 0},
	}, SelectConfig{Budget: 5, Depth: 2, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 5: 2 roots + 3 nodes, all from the rich tree.
	if res.Selections[0].Size() != 4 || res.Selections[1].Size() != 1 {
		t.Fatalf("sizes %d/%d, want 4/1",
			res.Selections[0].Size(), res.Selections[1].Size())
	}
}
