package sched

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"adaserve/internal/core"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/toktree"
)

// refLazyTree is the interleaved system's lazy tree as it was before rank
// trees: every expansion reads the draft's Dist at the node's context, and
// every child keeps its token and context.
type refLazyTree struct {
	draft      *lm.DraftLM
	topK       int
	nodes      []refLazyNode
	expansions int
}

type refLazyNode struct {
	ctx      lm.Context
	tok      lm.Token
	pathProb float64
	children []int
	expanded bool
}

func (t *refLazyTree) Children(id int) []int {
	n := &t.nodes[id]
	if !n.expanded {
		n.expanded = true
		t.expansions++
		dist := t.draft.Dist(n.ctx)
		probs := t.draft.RankProbs() // dist's probability at each rank
		parentProb := n.pathProb
		parentCtx := n.ctx
		for r := range min(t.topK, len(probs)) {
			tok := dist.Token(r)
			t.nodes = append(t.nodes, refLazyNode{
				ctx:      parentCtx.Extend(tok),
				tok:      tok,
				pathProb: parentProb * probs[r],
			})
			t.nodes[id].children = append(t.nodes[id].children, len(t.nodes)-1)
		}
		n = &t.nodes[id]
	}
	return n.children
}

func (t *refLazyTree) PathProb(id int) float64 { return t.nodes[id].pathProb }

// refNode is one node of the explicit-token tree materialization built.
type refNode struct {
	tok       lm.Token
	draftProb float64
	children  []int
}

// materialize is the old conversion of a selection into an explicit-token
// tree: each selected node, in selection order, is added under its parent
// (found by scanning children lists) with the conditional draft
// probability pathProb / parent pathProb, and its parent's children are
// kept sorted by descending draft probability, ties by token (AddChild's
// insertion step).
func (t *refLazyTree) materialize(selected []int) []refNode {
	nodes := []refNode{{draftProb: 1}}
	idMap := map[int]int{0: 0}
	for _, lazyID := range selected[1:] {
		parentLazy := -1
		for pid := range t.nodes {
			if slices.Contains(t.nodes[pid].children, lazyID) {
				parentLazy = pid
				break
			}
		}
		pid, ok := idMap[parentLazy]
		if !ok {
			panic("reference: selection out of order")
		}
		n := t.nodes[lazyID]
		id := len(nodes)
		nodes = append(nodes, refNode{tok: n.tok, draftProb: n.pathProb / t.nodes[parentLazy].pathProb})
		idMap[lazyID] = id
		ch := append(nodes[pid].children, id)
		for k := len(ch) - 1; k > 0; k-- {
			prev, cur := &nodes[ch[k-1]], &nodes[ch[k]]
			if cur.draftProb > prev.draftProb || (cur.draftProb == prev.draftProb && cur.tok < prev.tok) {
				ch[k-1], ch[k] = ch[k], ch[k-1]
				continue
			}
			break
		}
		nodes[pid].children = ch
	}
	return nodes
}

// refVerify is the old explicit-token verification walk over a tree whose
// every node is selected.
func refVerify(nodes []refNode, ctx lm.Context, v *lm.Verifier) (accepted []lm.Token, correction lm.Token) {
	cur := 0
	for {
		ch := nodes[cur].children
		if len(ch) == 0 {
			dist := v.Target.Dist(ctx)
			if v.Rule == lm.RuleGreedy {
				return accepted, dist.Argmax()
			}
			return accepted, dist.Sample(v.RNG)
		}
		branches := make([]lm.Branch, len(ch))
		for k, c := range ch {
			branches[k] = lm.Branch{Token: nodes[c].tok}
		}
		idx, corr := v.AcceptAmong(ctx, branches)
		if idx < 0 {
			return accepted, corr
		}
		cur = ch[idx]
		accepted = append(accepted, nodes[cur].tok)
		ctx = ctx.Extend(nodes[cur].tok)
	}
}

// TestInterleavedRankTreesMatchReference pins the interleaved system's
// rank-only lazy trees, rank-tree materialization and verification to the
// Dist-expanding lazy trees, explicit-token trees and explicit-token walk
// they replaced: over seeded batches of requests, thresholds and budgets,
// for both verification rules, Algorithm 1 must trigger the same expansions
// and select the same nodes, and every request's verification must accept
// the same tokens, commit the same correction, verify the same number of
// tokens and leave the verifier's RNG in the same state.
func TestInterleavedRankTreesMatchReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 13} {
		for _, rule := range []lm.VerifyRule{lm.RuleGreedy, lm.RuleSampleMatch} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, rule), func(t *testing.T) {
				target := lm.MustSyntheticLM(seed, 4096, 16, 3.2, 0.02)
				draft := lm.MustDraftLM(target, 0.85, seed+1)
				rng := mathutil.NewRNG(seed)
				var res toktree.VerifyResult
				var sc toktree.VerifyScratch
				for iter := 0; iter < 60; iter++ {
					n := 1 + rng.Intn(6)
					budget := n + rng.Intn(120)
					ctxs := make([]lm.Context, n)
					thresholds := make([]float64, n)
					lazies := make([]*lazyDraftTree, n)
					refs := make([]*refLazyTree, n)
					trees := make([]core.ProbTree, n)
					refTrees := make([]core.ProbTree, n)
					for i := range ctxs {
						ctxs[i] = lm.Context{ReqSeed: uint64(rng.Intn(1 << 30))}.Extend(lm.Token(rng.Intn(4096)))
						thresholds[i] = rng.Float64() * interleavedMaxAccept
						lazies[i] = newLazyDraftTree(draft, interleavedTopK)
						refs[i] = &refLazyTree{draft: draft, topK: interleavedTopK, nodes: []refLazyNode{{ctx: ctxs[i], pathProb: 1}}}
						trees[i], refTrees[i] = lazies[i], refs[i]
					}
					got, err := core.OptimalTrees(trees, thresholds, budget)
					want, refErr := core.OptimalTrees(refTrees, thresholds, budget)
					if !errors.Is(err, refErr) {
						t.Fatalf("iteration %d: error %v, reference %v", iter, err, refErr)
					}
					if errors.Is(err, core.ErrInvalid) {
						// Iterate's fallback: retry with every threshold dropped.
						clear(thresholds)
						got, err = core.OptimalTrees(trees, thresholds, budget)
						want, refErr = core.OptimalTrees(refTrees, thresholds, budget)
					}
					if err != nil || refErr != nil {
						t.Fatalf("iteration %d: %v / %v", iter, err, refErr)
					}
					for i := range lazies {
						if lazies[i].expansions != refs[i].expansions || !slices.Equal(got[i], want[i]) {
							t.Fatalf("iteration %d request %d: %d expansions selecting %v, reference %d selecting %v",
								iter, i, lazies[i].expansions, got[i], refs[i].expansions, want[i])
						}
						vSeed := uint64(rng.Intn(1 << 30))
						v := lm.NewVerifier(target, rule, mathutil.NewRNG(vSeed))
						refV := lm.NewVerifier(target, rule, mathutil.NewRNG(vSeed))
						toktree.VerifyInto(&res, lazies[i].materialize(ctxs[i], got[i]), v, &sc)
						accepted, correction := refVerify(refs[i].materialize(want[i]), ctxs[i], refV)
						if !slices.Equal(res.Accepted, accepted) || res.Correction != correction ||
							res.TokensVerified != len(want[i]) {
							t.Fatalf("iteration %d request %d: verified %+v, reference accepted %v correction %d over %d nodes",
								iter, i, res, accepted, correction, len(want[i]))
						}
						if *v.RNG != *refV.RNG {
							t.Fatalf("iteration %d request %d: RNG state differs after verification", iter, i)
						}
					}
				}
			})
		}
	}
}
