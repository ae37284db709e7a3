package toktree

import (
	"fmt"
	"slices"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// eagerSearch is Search as it was before tokens were filled on demand: it
// copies the (d, w) shape and reads one draft Dist per parent with
// children, writing every token. The tree it leaves holds every token.
func eagerSearch(bb *BeamBuilder, t *Tree, draft *lm.DraftLM, d, w int) {
	if d == 0 {
		return
	}
	sh := bb.shape(draft.RankProbs(), d, w)
	t.Nodes = append(t.Nodes[:1], sh.nodes[1:]...)
	t.Nodes[0].Children = sh.nodes[0].Children
	t.order = sh.order
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
			t.Nodes[c].token = tok
			if len(t.Nodes[c].Children) > 0 {
				ctxs[c] = ctxs[p].Extend(tok)
			}
		}
	}
}

// maskVerifyInto is VerifyInto as it was over a mask selection of a tree
// whose tokens are all set, kept verbatim apart from the mask.
func maskVerifyInto(res *VerifyResult, t *Tree, mask []bool, v *lm.Verifier, sc *VerifyScratch) {
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
		sc.children = sc.children[:0]
		sc.branches = sc.branches[:0]
		for _, c := range t.Nodes[cur].Children {
			if mask[c] {
				sc.children = append(sc.children, c)
				sc.branches = append(sc.branches, lm.Branch{Token: t.Nodes[c].token})
			}
		}
		if len(sc.children) == 0 {
			res.Correction = bonusToken(v, ctx)
			break
		}
		idx, correction := v.AcceptAmong(ctx, sc.branches)
		if idx < 0 {
			res.Correction = correction
			break
		}
		chosen := sc.children[idx]
		res.Accepted = append(res.Accepted, t.Nodes[chosen].token)
		ctx = ctx.Extend(t.Nodes[chosen].token)
		cur = chosen
	}
	res.Accepted = slices.Grow(res.Accepted, 1)
}

// TestLazyVerifyMatchesEager pins verification with tokens filled on
// demand to the eager-token search and mask verification it replaced: for
// both model setups, both rules, every d in [0, 8] and w in [1, 4] and
// every prefix of the tree, the pooled lazy walk must return the same
// result and leave the verifier's RNG in the same state, and every token
// it filled must be the eager one.
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
				var pool TreePool
				var lazyRes, eagerRes VerifyResult
				var lazySc, eagerSc VerifyScratch
				ctxRNG := mathutil.NewRNG(43)
				for d := 0; d <= 8; d++ {
					for w := 1; w <= 4; w++ {
						for i := 0; i < 4; i++ {
							ctx := lm.Context{ReqSeed: uint64(ctxRNG.Intn(1 << 30))}.Extend(lm.Token(ctxRNG.Intn(4096)))
							eager := newTree(ctx)
							eagerSearch(&eagerBB, eager, draft, d, w)
							lazy := pool.Get(ctx)
							if err := lazyBB.Search(lazy, draft, d, w); err != nil {
								t.Fatal(err)
							}
							for n := 1; n <= lazy.Size(); n++ {
								sel := Prefix(lazy, n)
								mask := make([]bool, lazy.Size())
								for id := range mask {
									mask[id] = sel.has(id)
								}
								seed := uint64(d*1000 + w*100 + i*10 + n)
								vLazy := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
								vEager := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
								VerifyInto(&lazyRes, sel, vLazy, &lazySc)
								maskVerifyInto(&eagerRes, eager, mask, vEager, &eagerSc)
								if !slices.Equal(lazyRes.Accepted, eagerRes.Accepted) ||
									lazyRes.Correction != eagerRes.Correction ||
									lazyRes.TokensVerified != eagerRes.TokensVerified {
									t.Fatalf("d=%d w=%d prefix %d: lazy %+v, eager %+v", d, w, n, lazyRes, eagerRes)
								}
								if *vLazy.RNG != *vEager.RNG {
									t.Fatalf("d=%d w=%d prefix %d: RNG state differs after the walk", d, w, n)
								}
								for id := range lazy.Nodes {
									if tok := lazy.Nodes[id].token; tok != 0 && tok != eager.Nodes[id].token {
										t.Fatalf("d=%d w=%d prefix %d: node %d filled with %d, eager %d", d, w, n, id, tok, eager.Nodes[id].token)
									}
								}
							}
							pool.Put(lazy)
						}
					}
				}
			})
		}
	}
}
