package core

import (
	"fmt"
	"math"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/toktree"
)

// refResult is refSelect's outcome: request i's selected nodes as a mask
// over its candidate tree, its Σ f(v), and the nodes selected in total.
type refResult struct {
	masks          [][]bool
	expectedAccept []float64
	budgetUsed     int
}

// refSelect is Selector.Select as it was before selections became prefixes
// of the greedy order, kept verbatim apart from its pooling: one frontier
// heap per request for the SLO phase, then one global frontier heap over
// all of them for the throughput phase, selecting nodes into masks.
func refSelect(reqs []SelectRequest, cfg SelectConfig) (refResult, error) {
	n := len(reqs)
	if cfg.Budget < n {
		return refResult{}, fmt.Errorf("core: budget %d below one root per request (%d)", cfg.Budget, n)
	}
	if cfg.Depth < 0 {
		return refResult{}, fmt.Errorf("core: negative depth %d", cfg.Depth)
	}
	res := refResult{masks: make([][]bool, n), expectedAccept: make([]float64, n)}
	frontiers := make([]frontierHeap, n)
	budget := cfg.Budget
	for i, rq := range reqs {
		res.masks[i] = make([]bool, rq.Cand.Size())
		res.masks[i][0] = true
		res.expectedAccept[i] = 1
		budget--
		for _, c := range rq.Cand.Nodes[0].Children {
			pushItem(&frontiers[i], frontierItem{req: i, node: c, pathProb: rq.Cand.Nodes[c].PathProb})
		}
	}
	add := func(h *frontierHeap, it frontierItem) {
		cand := reqs[it.req].Cand
		res.masks[it.req][it.node] = true
		res.expectedAccept[it.req] += it.pathProb
		for _, c := range cand.Nodes[it.node].Children {
			pushItem(h, frontierItem{req: it.req, node: c, pathProb: cand.Nodes[c].PathProb})
		}
	}
	size := func(i int) int {
		k := 0
		for _, in := range res.masks[i] {
			if in {
				k++
			}
		}
		return k
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && reqs[order[j]].MinAccept > reqs[order[j-1]].MinAccept; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	maxPerReq := cfg.PerRequestMax
	if maxPerReq <= 0 {
		maxPerReq = math.MaxInt
	}
	for _, i := range order {
		cap_ := capThreshold(reqs[i].MinAccept, cfg.Depth)
		for res.expectedAccept[i] < cap_ && size(i) < maxPerReq &&
			budget > 0 && frontiers[i].Len() > 0 {
			add(&frontiers[i], popItem(&frontiers[i]))
			budget--
		}
	}

	var global frontierHeap
	for i := range frontiers {
		global = append(global, frontiers[i]...)
	}
	initHeap(global)
	for budget > 0 && global.Len() > 0 {
		add(&global, popItem(&global))
		budget--
	}
	res.budgetUsed = cfg.Budget - budget
	return res, nil
}

// selectCase is one seeded Select input: a batch of candidate trees that
// share one (d, w) beam shape, with NoSpec root-only trees mixed in.
type selectCase struct {
	reqs []SelectRequest
	cfg  SelectConfig
}

// newSelectCase draws a batch of n requests for depth d and width w from
// rng: each request is root-only with probability 1/5 (a NoSpec request)
// and otherwise searched; A(r) is 0, fractional, or above d+1 (capped);
// the budget runs from n to n·(1+d·w); n_max is off or on.
func newSelectCase(t testing.TB, bb *toktree.BeamBuilder, draft *lm.DraftLM, rng *mathutil.RNG, n, d, w int) selectCase {
	t.Helper()
	c := selectCase{reqs: make([]SelectRequest, n)}
	for i := range c.reqs {
		tr := new(toktree.TreePool).Get(lm.Context{ReqSeed: uint64(rng.Intn(1 << 30))})
		if rng.Intn(5) != 0 {
			if err := bb.Search(tr, draft, d, w); err != nil {
				t.Fatal(err)
			}
		}
		var a float64
		switch rng.Intn(3) {
		case 1:
			a = rng.Float64() * float64(d+1)
		case 2:
			a = float64(d+1) + 1 + rng.Float64()*4
		}
		c.reqs[i] = SelectRequest{Cand: tr, MinAccept: a}
	}
	c.cfg = SelectConfig{Budget: n + rng.Intn(n*d*w+1), Depth: d}
	if rng.Intn(2) == 0 {
		c.cfg.PerRequestMax = 1 + rng.Intn(d*w+2)
	}
	return c
}

// checkSelectMatchesRef runs one pooled Selector and refSelect on c and
// requires identical node sets, bitwise expectedAccept and BudgetUsed, and
// that each selection is its tree's greedy-order prefix of that size.
func checkSelectMatchesRef(t testing.TB, s *Selector, c selectCase) {
	t.Helper()
	want, err := refSelect(c.reqs, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Select(c.reqs, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.BudgetUsed != want.budgetUsed {
		t.Fatalf("cfg %+v: BudgetUsed %d, reference %d", c.cfg, got.BudgetUsed, want.budgetUsed)
	}
	for i, rq := range c.reqs {
		if math.Float64bits(got.expectedAccept[i]) != math.Float64bits(want.expectedAccept[i]) {
			t.Fatalf("cfg %+v req %d: expectedAccept %v, reference %v", c.cfg, i, got.expectedAccept[i], want.expectedAccept[i])
		}
		in := make([]bool, rq.Cand.Size())
		for _, id := range rq.Cand.Order()[:got.Selections[i].Size()] {
			in[id] = true
		}
		for id := range in {
			if in[id] != want.masks[i][id] {
				t.Fatalf("cfg %+v req %d: node %d selected %v, reference %v", c.cfg, i, id, in[id], want.masks[i][id])
			}
		}
	}
}

// TestSelectMatchesHeapReference pins the prefix-length Select to the
// frontier-heap Select it replaced, over real beam shapes: every d in
// [0, 8] and w in [1, 4], with NoSpec roots, A(r) of 0, fractional and
// above d+1, budgets from n to n·(1+d·w), and n_max on and off. One pooled
// Selector runs every case, as a scheduler's does.
func TestSelectMatchesHeapReference(t *testing.T) {
	target := lm.MustSyntheticLM(31, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.88, 32)
	rng := mathutil.NewRNG(33)
	var bb toktree.BeamBuilder
	var s Selector
	for d := 0; d <= 8; d++ {
		for w := 1; w <= 4; w++ {
			for iter := 0; iter < 12; iter++ {
				checkSelectMatchesRef(t, &s, newSelectCase(t, &bb, draft, rng, 1+rng.Intn(12), d, w))
			}
		}
	}
}

// FuzzSelectShape checks Select against the heap reference over model
// seeds, batch sizes, depths, widths and Zipf sharpness.
func FuzzSelectShape(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(4), uint8(3), uint16(320))
	f.Add(uint64(2), uint8(1), uint8(0), uint8(1), uint16(300))
	f.Add(uint64(3), uint8(15), uint8(8), uint8(4), uint16(5))
	f.Add(uint64(4), uint8(3), uint8(2), uint8(2), uint16(499))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, dRaw, wRaw uint8, sharpRaw uint16) {
		n := 1 + int(nRaw%16)
		d := int(dRaw % 9)
		w := 1 + int(wRaw%6)
		sharpness := 0.05 + float64(sharpRaw%500)/100
		target := lm.MustSyntheticLM(seed, 512, 1+int(seed%16), sharpness, 0.05)
		draft := lm.MustDraftLM(target, 0.8, seed^0x5eed)
		rng := mathutil.NewRNG(seed)
		var bb toktree.BeamBuilder
		var s Selector
		for i := 0; i < 4; i++ {
			checkSelectMatchesRef(t, &s, newSelectCase(t, &bb, draft, rng, n, d, w))
		}
	})
}
