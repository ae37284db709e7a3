package sched

import (
	"errors"
	"fmt"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/toktree"
)

// AdaServeInterleaved is the ablation the paper's Challenge 2 argues
// against: it runs Algorithm 1 directly, interleaving GetTop selection with
// draft-model decoding. Every selected node must be expanded by the draft
// before its children become candidates, so one iteration costs up to
// (B − n) *serial* draft decoding steps — prohibitive next to the decoupled
// speculate-select pipeline, which needs only d parallel steps.
//
// Token trees produced this way are the theoretically optimal ones (given
// the draft's f(v) estimates), so this system trades latency for per-token
// optimality: the ablation quantifies that trade.
type AdaServeInterleaved struct {
	base
	// budget is the verification token budget per iteration.
	budget int
	// profile is the fitted verifier roofline (for t_spec estimation).
	profile *gpu.Profile

	lastIterTime float64
}

// interleavedMaxAccept caps A(r) per iteration (no beam depth exists to cap
// it).
const interleavedMaxAccept = 5

// interleavedTopK bounds the children materialized per expansion.
const interleavedTopK = 8

// NewAdaServeInterleaved builds the ablation system.
func NewAdaServeInterleaved(cfg Config) (*AdaServeInterleaved, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Engine.Draft() == nil {
		return nil, fmt.Errorf("sched: interleaved scheduling requires a draft model")
	}
	prof, budget, err := VerifyBudget(cfg.Engine.TargetCost())
	if err != nil {
		return nil, err
	}
	return &AdaServeInterleaved{
		base:    b,
		budget:  budget,
		profile: prof,
	}, nil
}

// Name implements System.
func (a *AdaServeInterleaved) Name() string { return "AdaServe (interleaved)" }

// lazyDraftTree implements core.ProbTree by expanding nodes on demand. Each
// expansion models one draft decoding step. A node is its parent's rank-j
// draft candidate, and the draft's probability at a rank does not depend
// on the context (lm.DraftLM.RankProbs), so the tree reads no Dist: tokens
// are left to verification, as in a searched tree.
type lazyDraftTree struct {
	draft *lm.DraftLM
	topK  int
	nodes []lazyNode
	// expansions counts draft decoding steps triggered.
	expansions int
}

type lazyNode struct {
	// at is the node's parent and draft rank (the root's is unused).
	at       toktree.RankNode
	pathProb float64
	children []int
	expanded bool
}

func newLazyDraftTree(draft *lm.DraftLM, topK int) *lazyDraftTree {
	return &lazyDraftTree{
		draft: draft, topK: topK,
		nodes: []lazyNode{{pathProb: 1}},
	}
}

// Children implements core.ProbTree, expanding the node if needed.
func (t *lazyDraftTree) Children(id int) []int {
	if !t.nodes[id].expanded {
		t.nodes[id].expanded = true
		t.expansions++
		probs := t.draft.RankProbs()
		parentProb := t.nodes[id].pathProb
		for r := range min(t.topK, len(probs)) {
			t.nodes = append(t.nodes, lazyNode{
				at:       toktree.RankNode{Parent: id, Rank: r},
				pathProb: parentProb * probs[r],
			})
			t.nodes[id].children = append(t.nodes[id].children, len(t.nodes)-1)
		}
	}
	return t.nodes[id].children
}

// PathProb implements core.ProbTree.
func (t *lazyDraftTree) PathProb(id int) float64 { return t.nodes[id].pathProb }

// materialize converts a selected node set into a toktree Selection for
// verification: the rank tree of exactly the selected nodes, all of it
// selected. Selected comes in selection order, which is parent before child
// (Algorithm 1 only selects nodes whose parents were selected) and, among
// siblings, rank order (a lower rank has the higher path probability and
// the lower ID), so its positions are valid rank-tree IDs.
func (t *lazyDraftTree) materialize(ctx lm.Context, selected []int) toktree.Selection {
	id := make([]int, len(t.nodes)) // lazy ID -> tree ID
	spec := make([]toktree.RankNode, len(selected)-1)
	for k, lazyID := range selected[1:] {
		at := t.nodes[lazyID].at
		id[lazyID] = k + 1
		spec[k] = toktree.RankNode{Parent: id[at.Parent], Rank: at.Rank}
	}
	tree := toktree.NewRankTree(ctx, t.draft, spec)
	return toktree.Prefix(tree, tree.Size())
}

// Iterate implements System.
func (a *AdaServeInterleaved) Iterate(now float64) IterationStats {
	a.finish()
	a.admitFIFO(now)

	if st, ok := a.prefillWhole(now); ok {
		return st
	}
	decode := a.pool.DecodingRequests()
	n := len(decode)
	if n == 0 {
		return IterationStats{Idle: true}
	}
	markFirstDecode(decode, now)

	budget := a.budget
	if budget < n {
		budget = n
	}

	// Estimate t_spec: the serial draft expansions dominate.
	draftStep := a.cfg.Engine.DraftStepLatency()
	tspec := float64(budget-n)*draftStep + a.profile.Latency(budget)
	if a.lastIterTime > tspec {
		tspec = a.lastIterTime
	}

	trees := make([]core.ProbTree, n)
	lazies := make([]*lazyDraftTree, n)
	thresholds := make([]float64, n)
	for i, r := range decode {
		lazies[i] = newLazyDraftTree(a.cfg.Engine.Draft(), interleavedTopK)
		trees[i] = lazies[i]
		A := r.MinAcceptForSLO(now, tspec)
		if A < 0 {
			A = 0
		}
		if A > interleavedMaxAccept {
			A = interleavedMaxAccept
		}
		thresholds[i] = A
	}
	selected, err := core.OptimalTrees(trees, thresholds, budget)
	if errors.Is(err, core.ErrInvalid) {
		// Infeasible SLO set this iteration: retry in pure-throughput mode
		// (all thresholds dropped), as the practical system degrades.
		for i := range thresholds {
			thresholds[i] = 0
		}
		selected, err = core.OptimalTrees(trees, thresholds, budget)
	}
	if err != nil {
		panic(err)
	}

	// Draft cost: every expansion is one serial draft decoding step (the
	// (B − n) steps of the paper's Challenge 2).
	expansions := 0
	for _, lt := range lazies {
		expansions += lt.expansions
	}
	specTime := float64(expansions) * draftStep

	items := make([]engine.VerifyItem, n)
	for i, r := range decode {
		items[i] = engine.VerifyItem{
			Req: r,
			Sel: lazies[i].materialize(r.Ctx, selected[i]),
		}
	}
	ver := a.cfg.Engine.VerifyTrees(items, nil)
	st := IterationStats{
		Elapsed:    specTime + a.cfg.SchedOverhead + ver.GPUTime,
		SchedCPU:   a.cfg.SchedOverhead,
		SpecTime:   specTime,
		VerifyTime: ver.GPUTime,
	}
	end := now + st.Elapsed
	for i, r := range decode {
		st.TokensCommitted += engine.CommitVerify(r, &ver.Results[i], end)
	}
	a.lastIterTime = st.Elapsed
	return st
}
