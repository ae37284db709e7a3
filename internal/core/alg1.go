package core

import (
	"errors"
	"fmt"
)

// ErrInvalid is returned by OptimalTrees when no feasible allocation meets
// every request's SLO within the budget (Algorithm 1 returns INVALID).
var ErrInvalid = errors.New("core: SLO targets infeasible within token budget")

// ProbTree is the oracle over a request's token tree with known path
// probabilities f(v) — T_inf(r) in the paper. Implementations may be finite
// explicit trees (tests, brute-force comparisons) or lazily expanded
// draft-model-backed trees.
//
// Node 0 is the root with PathProb 1. Children must satisfy
// PathProb(child) <= PathProb(parent) (language models assign probability
// < 1 per token), which Algorithm 1's correctness relies on.
type ProbTree interface {
	// Children returns the IDs of the node's children.
	Children(node int) []int
	// PathProb returns f(v) for the node.
	PathProb(node int) float64
}

// OptimalTrees implements Algorithm 1: given per-request probability-oracle
// trees, per-request minimum expected accepts A(r), and the total token
// budget B (which counts roots), it returns for each request the selected
// node IDs (roots included) forming the optimal draft token trees.
//
// Step 1 satisfies each request's SLO threshold greedily; step 2 spends the
// remaining budget on the globally highest-f(v) nodes. It returns
// ErrInvalid exactly when no feasible solution exists (Appendix C, part 1).
//
// Deviations from the paper's pseudocode, both deliberate:
//   - roots consume budget (as in Algorithm 2's initialization, so that
//     Σ|T_i| ≤ B counts every verified token);
//   - loop guards use "budget remaining > 0" where the pseudocode's
//     "B ≥ 0 / B ≤ 0" tests would over- or under-spend by one.
func OptimalTrees(trees []ProbTree, minAccept []float64, budget int) ([][]int, error) {
	n := len(trees)
	if n != len(minAccept) {
		return nil, fmt.Errorf("core: %d trees but %d thresholds", n, len(minAccept))
	}
	if budget < n {
		return nil, ErrInvalid // every tree needs at least its root
	}
	selected := make([][]int, n)
	perReq := make([]frontierHeap, n)
	acc := make([]float64, n)
	b := budget
	for i, t := range trees {
		selected[i] = []int{0}
		acc[i] = 1 // the root counts: verification always commits >= 1 token
		b--
		for _, c := range t.Children(0) {
			pushItem(&perReq[i], frontierItem{req: i, node: c, pathProb: t.PathProb(c)})
		}
	}

	// Step 1: add nodes toward SLO requirements.
	for i, t := range trees {
		for acc[i] < minAccept[i] {
			if b <= 0 {
				return nil, ErrInvalid
			}
			if perReq[i].Len() == 0 {
				// The oracle tree is exhausted below the threshold; with a
				// genuinely infinite tree this cannot happen, but finite
				// oracles (tests) can run dry — treat as infeasible.
				return nil, ErrInvalid
			}
			it := popItem(&perReq[i])
			selected[i] = append(selected[i], it.node)
			acc[i] += it.pathProb
			b--
			for _, c := range t.Children(it.node) {
				pushItem(&perReq[i], frontierItem{req: i, node: c, pathProb: t.PathProb(c)})
			}
		}
	}

	// Step 2: spend the remaining budget globally.
	var global frontierHeap
	for i := range perReq {
		global = append(global, perReq[i]...)
	}
	initHeap(global)
	for b > 0 && global.Len() > 0 {
		it := popItem(&global)
		selected[it.req] = append(selected[it.req], it.node)
		b--
		for _, c := range trees[it.req].Children(it.node) {
			pushItem(&global, frontierItem{req: it.req, node: c, pathProb: trees[it.req].PathProb(c)})
		}
	}
	return selected, nil
}
