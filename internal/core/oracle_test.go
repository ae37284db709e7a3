package core

import (
	"math"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/toktree"
)

// bestBySize returns, for k = 1..tree size, the largest Σ f(v) of any
// connected selection of k nodes holding the root (index 0 unused),
// found by enumerating every subset of the non-root nodes.
func bestBySize(tr *toktree.Tree) []float64 {
	n := tr.Size()
	parent := make([]int, n)
	for p, node := range tr.Nodes {
		for _, c := range node.Children {
			parent[c] = p
		}
	}
	best := make([]float64, n+1)
	for k := range best {
		best[k] = math.Inf(-1)
	}
	for mask := 0; mask < 1<<(n-1); mask++ {
		in := func(id int) bool { return id == 0 || mask&(1<<(id-1)) != 0 }
		size, sum, connected := 0, 0.0, true
		for id := 0; id < n && connected; id++ {
			if !in(id) {
				continue
			}
			connected = id == 0 || in(parent[id])
			size++
			sum += tr.Nodes[id].PathProb
		}
		if connected && sum > best[size] {
			best[size] = sum
		}
	}
	return best
}

// bestTotal returns the largest Σ f(v) over the requests' connected
// selections within budget, taking only sizes whose best sum reaches
// need[i] (-Inf when no combination does).
func bestTotal(best [][]float64, need []float64, budget int) float64 {
	var rec func(i, left int) float64
	rec = func(i, left int) float64 {
		if i == len(best) {
			return 0
		}
		top := math.Inf(-1)
		for k := 1; k < len(best[i]) && k <= left; k++ {
			if best[i][k] < need[i] {
				continue
			}
			top = math.Max(top, best[i][k]+rec(i+1, left-k))
		}
		return top
	}
	return rec(0, budget)
}

// oracleTree is a random small candidate tree: a real beam shape with
// 1 + d·w <= 12 nodes, or a random rank tree of at most 12 nodes, whose
// path probabilities tie wherever two paths take the same ranks in another
// order.
func oracleTree(rng *mathutil.RNG, bb *toktree.BeamBuilder, draft *lm.DraftLM) *toktree.Tree {
	ctx := lm.Context{ReqSeed: uint64(rng.Intn(1 << 30))}
	if rng.Intn(2) == 0 {
		tr := toktree.Root(ctx)
		d := 1 + rng.Intn(4)
		w := 1 + rng.Intn(11/d)
		if err := bb.Search(&tr, draft, d, w); err != nil {
			panic(err)
		}
		return &tr
	}
	kids := []int{0}
	var spec []toktree.RankNode
	for size := 1 + rng.Intn(12); len(kids) < size; {
		p := rng.Intn(len(kids))
		spec = append(spec, toktree.RankNode{Parent: p, Rank: kids[p]})
		kids[p]++
		kids = append(kids, 0)
	}
	return toktree.NewRankTree(ctx, draft, spec)
}

// TestSelectOracle is the exact-allocation oracle for Algorithm 2 on small
// instances (2–3 requests, trees of at most 12 nodes, B <= 16), where every
// connected selection is enumerated. With every A(r) = 0 only the
// throughput phase runs, and it must reach the exact maximum of Σ f(v):
// path probability never rises along a path, so the B highest nodes form a
// connected selection. With random A(r) the test logs the two-phase
// algorithm's gap to the best selection that meets every A_cap(r), as
// SLOs-Serve frames exact allocation; that gap is a finding, not a bound.
func TestSelectOracle(t *testing.T) {
	target := lm.MustSyntheticLM(51, 4096, 16, 1.2, 0.02)
	draft := lm.MustDraftLM(target, 0.85, 52)
	rng := mathutil.NewRNG(53)
	var bb toktree.BeamBuilder
	var s Selector
	const depth = 11 // no tree here is deeper, so A_cap(r) = min(A(r), 12)
	feasible, met, worstGap, sumGap := 0, 0, 0.0, 0.0
	for iter := 0; iter < 300; iter++ {
		n := 2 + rng.Intn(2)
		reqs := make([]SelectRequest, n)
		best := make([][]float64, n)
		for i := range reqs {
			reqs[i].Cand = oracleTree(rng, &bb, draft)
			best[i] = bestBySize(reqs[i].Cand)
		}
		budget := n + rng.Intn(17-n)
		cfg := SelectConfig{Budget: budget, Depth: depth}

		res, err := s.Select(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := 0.0
		for _, e := range res.expectedAccept {
			got += e
		}
		want := bestTotal(best, make([]float64, n), budget)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("iter %d: throughput selection reaches Σf = %.12g, optimum %.12g", iter, got, want)
		}

		need := make([]float64, n)
		for i := range reqs {
			reqs[i].MinAccept = rng.Float64() * 2.5
			need[i] = capThreshold(reqs[i].MinAccept, depth)
		}
		opt := bestTotal(best, need, budget)
		if math.IsInf(opt, -1) {
			continue
		}
		feasible++
		res, err = s.Select(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, allMet := 0.0, true
		for i, e := range res.expectedAccept {
			got += e
			allMet = allMet && e >= need[i]
		}
		if !allMet {
			continue
		}
		met++
		if got > opt+1e-9 {
			t.Fatalf("iter %d: two-phase selection %.12g beats the exhaustive optimum %.12g", iter, got, opt)
		}
		gap := opt - got
		sumGap += gap
		worstGap = math.Max(worstGap, gap)
	}
	t.Logf("random A(r): %d feasible instances, two-phase selection met every A_cap(r) on %d; Σf gap to the best such selection mean %.4g, worst %.4g",
		feasible, met, sumGap/math.Max(float64(met), 1), worstGap)
}
