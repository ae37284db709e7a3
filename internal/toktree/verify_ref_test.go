package toktree

import (
	"fmt"
	"slices"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// eagerSearch is Search as it was before tokens were read on demand: it
// copies the (d, w) shape into a tree of its own and reads one draft Dist
// per parent with children, storing every token.
func eagerSearch(bb *BeamBuilder, ctx lm.Context, draft *lm.DraftLM, d, w int) *refTree {
	t := newRefTree(ctx)
	if d == 0 {
		return t
	}
	sh := bb.shape(draft.RankProbs(), d, w)
	t.Nodes = append(t.Nodes[:1], sh.nodes[1:]...)
	t.Nodes[0].Children = sh.nodes[0].Children
	t.order = sh.order
	t.tok = make([]lm.Token, len(t.Nodes))
	ctxs := make([]lm.Context, len(sh.nodes))
	ctxs[0] = t.ctx
	for p := range t.Nodes {
		ch := t.Nodes[p].Children
		if len(ch) == 0 {
			continue
		}
		dist := draft.Dist(ctxs[p])
		for rank, c := range ch {
			tok := dist.Token(rank)
			t.tok[c] = tok
			if len(t.Nodes[c].Children) > 0 {
				ctxs[c] = ctxs[p].Extend(tok)
			}
		}
	}
	return t
}

// maskVerifyInto is VerifyInto as it was over a mask selection of a tree
// whose tokens are all stored, kept verbatim apart from the mask and the
// walk buffers, which are its own.
func maskVerifyInto(res *VerifyResult, t *refTree, mask []bool, v *lm.Verifier) {
	var children []int
	var branches []lm.Token
	res.Accepted = res.Accepted[:0]
	res.Correction = 0
	res.TokensVerified = 0
	for _, in := range mask {
		if in {
			res.TokensVerified++
		}
	}
	cur := 0
	ctx := t.ctx
	for {
		children = children[:0]
		branches = branches[:0]
		for _, c := range t.Nodes[cur].Children {
			if mask[c] {
				children = append(children, c)
				branches = append(branches, t.tok[c])
			}
		}
		if len(children) == 0 {
			res.Correction = bonusToken(v, ctx)
			break
		}
		idx, correction := v.AcceptAmong(ctx, branches)
		if idx < 0 {
			res.Correction = correction
			break
		}
		chosen := children[idx]
		res.Accepted = append(res.Accepted, t.tok[chosen])
		ctx = ctx.Extend(t.tok[chosen])
		cur = chosen
	}
	res.Accepted = slices.Grow(res.Accepted, 1)
}

// lazyVerifyDiff verifies the selection sel of a lazy tree, into the
// reused lazyRes and sc, and the same nodes of the eager tree with
// verifiers of equal seeds. Both walks must return the same result and
// leave the RNG in the same state; it describes the first difference or
// returns "".
func lazyVerifyDiff(lazyRes *VerifyResult, sc *VerifyScratch, sel Selection, eager *refTree, target lm.Model, rule lm.VerifyRule, seed uint64) string {
	mask := make([]bool, eager.Size())
	for id := range mask {
		mask[id] = sel.has(id)
	}
	vLazy := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
	vEager := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
	var eagerRes VerifyResult
	VerifyInto(lazyRes, sel, vLazy, sc)
	maskVerifyInto(&eagerRes, eager, mask, vEager)
	if !slices.Equal(lazyRes.Accepted, eagerRes.Accepted) ||
		lazyRes.Correction != eagerRes.Correction ||
		lazyRes.TokensVerified != eagerRes.TokensVerified {
		return fmt.Sprintf("lazy %+v, eager %+v", *lazyRes, eagerRes)
	}
	if *vLazy.RNG != *vEager.RNG {
		return "RNG state differs after the walk"
	}
	return ""
}

// TestLazyVerifyMatchesEager pins verification with tokens read on demand
// to the eager-token search and mask verification it replaced: for both
// model setups, both rules, every d in [0, 8] and w in [1, 4] and every
// prefix of the tree, the lazy walk, with its result and scratch reused,
// must return the same result and leave the verifier's RNG in the same
// state.
func TestLazyVerifyMatchesEager(t *testing.T) {
	for _, s := range []struct {
		name             string
		sharpness, alpha float64
	}{{"llama", 3.2, 0.88}, {"qwen", 3.0, 0.84}} {
		for _, rule := range []lm.VerifyRule{lm.RuleGreedy, lm.RuleSampleMatch} {
			t.Run(fmt.Sprintf("%s/%s", s.name, rule), func(t *testing.T) {
				target := lm.MustSyntheticLM(41, 4096, 16, s.sharpness, 0.02)
				draft := lm.MustDraftLM(target, s.alpha, 42)
				var lazyBB, eagerBB BeamBuilder
				var lazyRes VerifyResult
				var sc VerifyScratch
				ctxRNG := mathutil.NewRNG(43)
				for d := 0; d <= 8; d++ {
					for w := 1; w <= 4; w++ {
						for i := 0; i < 4; i++ {
							ctx := lm.Context{ReqSeed: uint64(ctxRNG.Intn(1 << 30))}.Extend(lm.Token(ctxRNG.Intn(4096)))
							eager := eagerSearch(&eagerBB, ctx, draft, d, w)
							lazy := Root(ctx)
							if err := lazyBB.Search(&lazy, draft, d, w); err != nil {
								t.Fatal(err)
							}
							for n := 1; n <= lazy.Size(); n++ {
								seed := uint64(d*1000 + w*100 + i*10 + n)
								if diff := lazyVerifyDiff(&lazyRes, &sc, Prefix(&lazy, n), eager, target, rule, seed); diff != "" {
									t.Fatalf("d=%d w=%d prefix %d: %s", d, w, n, diff)
								}
							}
						}
					}
				}
			})
		}
	}
}
