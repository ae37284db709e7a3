package toktree

import (
	"slices"

	"adaserve/internal/lm"
)

// VerifyResult reports one tree-verification pass for one request.
type VerifyResult struct {
	// Accepted are the accepted draft tokens along the root path, in order,
	// with room behind them for the correction, so a commit can append it
	// without allocating.
	Accepted []lm.Token
	// Correction is the token the target committed after the accepted
	// prefix: the resampled correction when a branch was rejected, or the
	// bonus token when the walk ran past the last selected node.
	Correction lm.Token
	// TokensVerified is the number of tree positions the target processed
	// (== selection size), for cost accounting.
	TokensVerified int
}

// VerifyScratch holds the per-level buffers of a verification walk so
// repeated verifies — one per request per iteration — allocate nothing once
// warm. The zero value is ready to use. Not safe for concurrent use.
type VerifyScratch struct {
	children []int
	branches []lm.Branch
}

// VerifyInto runs tree-based parallel verification of the selected subtree.
//
// Semantically the target scores every selected node in one batched pass
// (cost = selection size); the commit walk then descends from the root: at
// each node the verifier adjudicates among the selected children (ordered by
// descending draft probability). Descent stops at the first rejection — the
// rule's correction token is committed — or past the last selected node,
// where the bonus token is drawn from the target distribution at that
// context. At each node the walk first fills the selected children's tokens
// from one draft Dist at the node's context, so the draft is asked only
// where the walk goes; the draft draws nothing from the RNG.
//
// res is reset and refilled in place (its Accepted capacity is reused, and
// left one token larger than the prefix) and sc provides the walk buffers;
// the engine pools both across iterations.
func VerifyInto(res *VerifyResult, sel Selection, v *lm.Verifier, sc *VerifyScratch) {
	t := sel.tree
	res.Accepted = res.Accepted[:0]
	res.Correction = 0
	res.TokensVerified = sel.Size()
	cur := 0
	ctx := t.ctx
	for {
		sc.children = sc.children[:0]
		for _, c := range t.Nodes[cur].Children {
			if sel.has(c) {
				sc.children = append(sc.children, c)
			}
		}
		if len(sc.children) == 0 {
			// Past the last selected node: commit the bonus token.
			res.Correction = bonusToken(v, ctx)
			break
		}
		t.fill(cur, ctx, len(sc.children))
		sc.branches = sc.branches[:0]
		for _, c := range sc.children {
			sc.branches = append(sc.branches, lm.Branch{Token: t.Nodes[c].token})
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

// bonusToken draws the extra token the target emits at the end of a fully
// accepted path. Under the greedy rule it is the argmax; under the
// stochastic rule it is a sample.
func bonusToken(v *lm.Verifier, ctx lm.Context) lm.Token {
	dist := v.Target.Dist(ctx)
	if v.Rule == lm.RuleGreedy {
		return dist.Argmax()
	}
	return dist.Sample(v.RNG)
}
