package core

import (
	"math"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/toktree"
)

// testDraft returns a draft whose rank probabilities are the Zipf weights
// of the given sharpness over branch candidates, less a 2% tail.
func testDraft(branch int, sharpness float64) *lm.DraftLM {
	return lm.MustDraftLM(lm.MustSyntheticLM(1, 4096, branch, sharpness, 0.02), 0.85, 2)
}

// Two-candidate drafts from peaked to flat, and a flat 16-candidate one.
var (
	sharpDraft = testDraft(2, 3.2)  // rank probabilities ≈ 0.884, 0.096
	midDraft   = testDraft(2, 1.6)  // ≈ 0.737, 0.243
	evenDraft  = testDraft(2, 1.0)  // ≈ 0.653, 0.327
	flatDraft  = testDraft(2, 0.5)  // ≈ 0.574, 0.406
	wideDraft  = testDraft(16, 0.5) // ≈ 0.147, 0.104, 0.085, …
)

// candTree builds a 2-level rank tree over draft, with rank probabilities
// p0 > p1: root -> a (rank 0, f = p0) -> c (rank 0, f = p0²), root -> b
// (rank 1, f = p1).
func candTree(draft *lm.DraftLM) *toktree.Tree {
	return toktree.NewRankTree(lm.Context{ReqSeed: 1}, draft, []toktree.RankNode{{Parent: 0, Rank: 0}, {Parent: 0, Rank: 1}, {Parent: 1, Rank: 0}})
}

func TestSelectMeetsThresholdMinimally(t *testing.T) {
	// A(r) = 1.6: the root provides 1.0; one 0.737 node suffices (Figure
	// 5's A_cap(r0)=0.6 example, shifted by the root's contribution).
	tr := candTree(midDraft)
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
	if math.Abs(res.expectedAccept[0]-(1+tr.Nodes[1].PathProb)) > 1e-9 {
		t.Fatalf("E[acc] = %g", res.expectedAccept[0])
	}
}

func TestSelectFigure5Scenario(t *testing.T) {
	// Reproduce the paper's Figure 5: two requests, budget 8.
	// r0: A_cap needs 1.6 total (root 1.0 + t1 0.737 suffices).
	// r1: A_cap needs 1.8 (root + 0.574 + 0.406).
	// Throughput phase then adds the globally best remaining nodes.
	// Each tree: t1, t2 are the root's ranks 0, 1; t3, t4 are t1's; t5, t6
	// are t3's.
	spec := []toktree.RankNode{{Parent: 0, Rank: 0}, {Parent: 0, Rank: 1}, {Parent: 1, Rank: 0}, {Parent: 1, Rank: 1}, {Parent: 3, Rank: 0}, {Parent: 3, Rank: 1}}
	r0 := toktree.NewRankTree(lm.Context{ReqSeed: 0}, midDraft, spec)  // f: .737 .243 .543 .179 .400 .132
	r1 := toktree.NewRankTree(lm.Context{ReqSeed: 1}, flatDraft, spec) // f: .574 .406 .330 .233 .189 .134

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
	// r0 should hold root, t1 (0.737) and the throughput picks t3 (0.543)
	// and t5 (0.400); r1 holds root, t1 (0.574), t2 (0.406) and t3 (0.330).
	if got := res.Selections[0].Size(); got != 4 {
		t.Fatalf("r0 selected %d nodes, want 4", got)
	}
	if got := res.Selections[1].Size(); got != 4 {
		t.Fatalf("r1 selected %d nodes, want 4", got)
	}
	wantE0 := 1 + r0.Nodes[1].PathProb + r0.Nodes[3].PathProb + r0.Nodes[5].PathProb
	if math.Abs(res.expectedAccept[0]-wantE0) > 1e-9 {
		t.Fatalf("r0 E[acc] = %g, want %g", res.expectedAccept[0], wantE0)
	}
	wantE1 := 1 + r1.Nodes[1].PathProb + r1.Nodes[2].PathProb + r1.Nodes[3].PathProb
	if math.Abs(res.expectedAccept[1]-wantE1) > 1e-9 {
		t.Fatalf("r1 E[acc] = %g, want %g", res.expectedAccept[1], wantE1)
	}
}

func TestSelectHardestFirstUnderScarcity(t *testing.T) {
	// Budget only covers roots + 1 node; the request with the larger A(r)
	// must receive it.
	easy := candTree(sharpDraft)
	hard := candTree(evenDraft)
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
	tr := candTree(midDraft)
	res, err := new(Selector).Select([]SelectRequest{{Cand: tr, MinAccept: 50}},
		SelectConfig{Budget: 4, Depth: 1, PerRequestMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	// cap = min(50, 2) = 2; root(1) + 0.737 + 0.243 = 1.98 < 2, + 0.543
	// (depth 2) = 2.52 >= 2.
	if res.expectedAccept[0] < capThreshold(50, 1) {
		t.Fatalf("capped threshold should be reachable; E=%g", res.expectedAccept[0])
	}
}

func TestSelectPerRequestMax(t *testing.T) {
	tr := candTree(sharpDraft)
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
		{Cand: candTree(sharpDraft), MinAccept: 3},
		{Cand: candTree(midDraft), MinAccept: 3},
		{Cand: candTree(flatDraft), MinAccept: 3},
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
		{Cand: candTree(sharpDraft)},
		{Cand: candTree(midDraft)},
	}
	if _, err := new(Selector).Select(trees, SelectConfig{Budget: 1, Depth: 2, PerRequestMax: 4}); err == nil {
		t.Fatal("budget below one root per request accepted")
	}
}

func TestSelectRejectsNegativeDepth(t *testing.T) {
	trees := []SelectRequest{{Cand: candTree(sharpDraft)}}
	if _, err := new(Selector).Select(trees, SelectConfig{Budget: 4, Depth: -1, PerRequestMax: 4}); err == nil {
		t.Fatal("negative depth accepted")
	}
}

func TestSelectSelectionsAreValidTrees(t *testing.T) {
	trees := []SelectRequest{
		{Cand: candTree(sharpDraft), MinAccept: 2.0},
		{Cand: candTree(midDraft), MinAccept: 1.2},
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
	rich := candTree(evenDraft) // f: 0.653, 0.327, 0.426
	poor := candTree(wideDraft) // f: 0.147, 0.104, 0.022
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
