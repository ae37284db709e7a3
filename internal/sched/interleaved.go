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
	prof, err := gpu.ProfileCostModel(cfg.Engine.TargetCost(), 4096, 512)
	if err != nil {
		return nil, err
	}
	return &AdaServeInterleaved{
		base:    b,
		budget:  prof.BudgetFor(budgetLatencyFactor * prof.Base),
		profile: prof,
	}, nil
}

// Name implements System.
func (a *AdaServeInterleaved) Name() string { return "AdaServe (interleaved)" }

// lazyDraftTree implements core.ProbTree by expanding nodes with the draft
// model on demand. Each expansion models one draft decoding step.
type lazyDraftTree struct {
	draft lm.Model
	topK  int
	nodes []lazyNode
	// expansions counts draft decoding steps triggered.
	expansions int
}

type lazyNode struct {
	ctx      lm.Context
	tok      lm.Token
	pathProb float64
	children []int
	expanded bool
}

func newLazyDraftTree(draft lm.Model, ctx lm.Context, rootTok lm.Token, topK int) *lazyDraftTree {
	return &lazyDraftTree{
		draft: draft, topK: topK,
		nodes: []lazyNode{{ctx: ctx, tok: rootTok, pathProb: 1}},
	}
}

// Children implements core.ProbTree, expanding the node if needed.
func (t *lazyDraftTree) Children(id int) []int {
	n := &t.nodes[id]
	if !n.expanded {
		n.expanded = true
		t.expansions++
		dist := t.draft.Dist(n.ctx)
		parentProb := n.pathProb
		parentCtx := n.ctx
		for r := range min(t.topK, dist.Len()) {
			tok := dist.Token(r)
			child := lazyNode{
				ctx:      parentCtx.Extend(tok),
				tok:      tok,
				pathProb: parentProb * dist.Prob(r),
			}
			t.nodes = append(t.nodes, child)
			t.nodes[id].children = append(t.nodes[id].children, len(t.nodes)-1)
		}
		n = &t.nodes[id]
	}
	return n.children
}

// PathProb implements core.ProbTree.
func (t *lazyDraftTree) PathProb(id int) float64 { return t.nodes[id].pathProb }

// materialize converts a selected node set into a toktree Selection for
// verification: a tree of exactly the selected nodes, all of it selected.
func (t *lazyDraftTree) materialize(ctx lm.Context, rootTok lm.Token, selected []int) toktree.Selection {
	tree := toktree.NewTree(ctx, rootTok)
	idMap := map[int]int{0: 0} // lazy ID -> toktree ID
	// Selected comes in insertion order, which is parent-before-child
	// (Algorithm 1 only selects nodes whose parents were selected).
	for _, lazyID := range selected {
		if lazyID == 0 {
			continue
		}
		parentLazy := t.parentOf(lazyID)
		parentTok, ok := idMap[parentLazy]
		if !ok {
			panic("sched: interleaved selection out of order")
		}
		n := t.nodes[lazyID]
		cond := n.pathProb / t.nodes[parentLazy].pathProb
		idMap[lazyID] = tree.AddChild(parentTok, n.tok, cond)
	}
	return toktree.Prefix(tree, tree.Size())
}

// parentOf finds a node's parent by scanning children lists (lazy trees are
// small: at most budget x topK nodes).
func (t *lazyDraftTree) parentOf(id int) int {
	for pid := range t.nodes {
		for _, c := range t.nodes[pid].children {
			if c == id {
				return pid
			}
		}
	}
	panic(fmt.Sprintf("sched: lazy node %d has no parent", id))
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
		lazies[i] = newLazyDraftTree(a.cfg.Engine.Draft(), r.Ctx, r.LastToken(), interleavedTopK)
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
			Sel: lazies[i].materialize(r.Ctx, r.LastToken(), selected[i]),
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
		st.TokensCommitted += engine.CommitVerify(r, ver.Results[i], end)
	}
	a.lastIterTime = st.Elapsed
	return st
}
