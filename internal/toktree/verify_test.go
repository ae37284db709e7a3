package toktree

import (
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// chain is the fixture of the white-box verification tests: a real target
// model and its greedy continuation from a root context. Under the greedy
// rule the target accepts exactly the chain's tokens, so accepted prefixes
// are fully predictable: tok[0] is the root token and tok[k] is the
// target's argmax after tok[1..k-1]. An aligned draft's rank-0 candidate is
// always the chain's token and its other ranks are wrong ones; a mistaken
// draft's rank 0 is always wrong, and the chain's token hides at a lower
// rank.
type chain struct {
	target            *lm.SyntheticLM
	aligned, mistaken *lm.DraftLM
	tok               []lm.Token
	// onChain holds the contexts the chain passes through: the root's and
	// each one extended by tok[1..k].
	onChain map[lm.Context]bool
}

const chainVocab = 256

func newChain() chain {
	target := lm.MustSyntheticLM(3, chainVocab, 16, 3.2, 0.02)
	c := chain{
		target:   target,
		aligned:  lm.MustDraftLM(target, 1, 4),
		mistaken: lm.MustDraftLM(target, 0, 5),
		tok:      []lm.Token{10},
		onChain:  map[lm.Context]bool{},
	}
	ctx := chainCtx(10)
	c.onChain[ctx] = true
	for k := 1; k <= 6; k++ {
		next := c.target.Dist(ctx).Argmax()
		c.tok = append(c.tok, next)
		ctx = ctx.Extend(next)
		c.onChain[ctx] = true
	}
	return c
}

// Dist answers as the target, but only on the chain. A verification walk
// extends its context along accepted tokens alone, so a query off the chain
// means the walk went down a rejected sibling.
func (c chain) Dist(ctx lm.Context) lm.Dist {
	if !c.onChain[ctx] {
		panic("chain: context off the correct chain")
	}
	return c.target.Dist(ctx)
}

// greedyVerifier builds a verifier over the chain with the deterministic
// rule.
func (c chain) greedyVerifier() *lm.Verifier {
	return lm.NewVerifier(c, lm.RuleGreedy, mathutil.NewRNG(1))
}

// rootRank returns the mistaken draft's rank of tok[1] at the root: at
// least 1, since its rank 0 is wrong.
func (c chain) rootRank(t *testing.T) int {
	t.Helper()
	dist := c.mistaken.Dist(chainCtx(10))
	for r := range len(c.mistaken.RankProbs()) {
		if dist.Token(r) == c.tok[1] {
			if r == 0 {
				t.Fatal("the mistaken draft's rank 0 is the target's argmax")
			}
			return r
		}
	}
	t.Fatal("the target's argmax is no draft candidate")
	return 0
}

// chainCtx is a context whose history ends in the root token.
func chainCtx(root lm.Token) lm.Context {
	return lm.Context{ReqSeed: 7}.Extend(root)
}

func TestVerifyAcceptsLongestCorrectPrefix(t *testing.T) {
	// Under the aligned draft, node 1 (rank 0) -> node 3 (rank 0) is the
	// correct continuation tok[1], tok[2]; siblings node 2 (depth 1) and
	// node 4 (depth 2) are rejected. Node 5 hangs off the WRONG sibling,
	// so it must never be reached: the chain target panics off the chain.
	c := newChain()
	tr := NewRankTree(chainCtx(10), c.aligned, []RankNode{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	sel := Prefix(tr, tr.Size())
	res := verify(sel, c.greedyVerifier())
	if want := c.tok[1:3]; !reflect.DeepEqual(res.Accepted, want) {
		t.Fatalf("accepted %v, want %v", res.Accepted, want)
	}
	// Past the last selected node on the accepted path: bonus = argmax
	// after tok[1], tok[2] = tok[3].
	if res.Correction != c.tok[3] {
		t.Fatalf("bonus token %d, want %d", res.Correction, c.tok[3])
	}
	if res.TokensVerified != sel.Size() {
		t.Fatalf("tokens verified %d, want selection size %d", res.TokensVerified, sel.Size())
	}
	if tok := materialize(tr)[2]; tok == c.tok[1] {
		t.Fatalf("rejected sibling holds the chain's token %d", tok)
	}
}

func TestVerifyRejectionEmitsCorrection(t *testing.T) {
	// The mistaken draft's ranks above tok[1]'s are all wrong: with only
	// those children the walk stops at the root and the correction is the
	// target argmax there.
	c := newChain()
	spec := make([]RankNode, c.rootRank(t))
	for r := range spec {
		spec[r] = RankNode{Parent: 0, Rank: r}
	}
	tr := NewRankTree(chainCtx(10), c.mistaken, spec)
	sel := Prefix(tr, tr.Size())
	res := verify(sel, c.greedyVerifier())
	if len(res.Accepted) != 0 {
		t.Fatalf("accepted %v, want none", res.Accepted)
	}
	if res.Correction != c.tok[1] {
		t.Fatalf("correction %d, want target argmax %d", res.Correction, c.tok[1])
	}
}

func TestVerifyRespectsSelection(t *testing.T) {
	// The correct child tok[1] exists in the candidate tree but is NOT
	// selected (it is a less likely sibling of the mistaken draft's rank
	// 0, outside the two-node prefix): verification must not see it and
	// must reject the selected sibling.
	c := newChain()
	right := c.rootRank(t)
	spec := make([]RankNode, right+1)
	for r := range spec {
		spec[r] = RankNode{Parent: 0, Rank: r}
	}
	tr := NewRankTree(chainCtx(10), c.mistaken, spec)
	sel := Prefix(tr, 2)
	if sel.has(1 + right) {
		t.Fatal("the correct child is inside the two-node prefix")
	}
	res := verify(sel, c.greedyVerifier())
	if len(res.Accepted) != 0 || res.Correction != c.tok[1] {
		t.Fatalf("selection leak: accepted %v correction %d", res.Accepted, res.Correction)
	}
	if res.TokensVerified != 2 {
		t.Fatalf("tokens verified %d, want 2 (root + one child)", res.TokensVerified)
	}
}

func TestVerifyRootOnlyTree(t *testing.T) {
	// Empty tree (root only, nothing speculated): verification degenerates
	// to plain decoding — no accepted tokens, bonus from the root context.
	c := newChain()
	tr := Root(chainCtx(10))
	sel := Prefix(&tr, 1)
	res := verify(sel, c.greedyVerifier())
	if len(res.Accepted) != 0 {
		t.Fatalf("root-only tree accepted %v", res.Accepted)
	}
	if res.Correction != c.tok[1] {
		t.Fatalf("bonus %d, want %d", res.Correction, c.tok[1])
	}
	if res.TokensVerified != 1 {
		t.Fatalf("tokens verified %d, want 1", res.TokensVerified)
	}
}

func TestVerifyFullAcceptanceChain(t *testing.T) {
	// A selected rank-0 chain of depth 4 under the aligned draft is fully
	// correct: everything accepted plus the bonus token at the end.
	c := newChain()
	spec := make([]RankNode, 4)
	for d := range spec {
		spec[d] = RankNode{Parent: d}
	}
	tr := NewRankTree(chainCtx(10), c.aligned, spec)
	sel := Prefix(tr, tr.Size())
	res := verify(sel, c.greedyVerifier())
	if want := c.tok[1:5]; !reflect.DeepEqual(res.Accepted, want) {
		t.Fatalf("accepted %v, want %v", res.Accepted, want)
	}
	if res.Correction != c.tok[5] {
		t.Fatalf("bonus %d, want %d", res.Correction, c.tok[5])
	}
}

// buildRandomTreeAndSelection grows a random candidate tree via the real
// beam builder over a synthetic draft model and selects a random prefix,
// so equivalence tests cover realistic shapes.
func buildRandomTreeAndSelection(t *testing.T, seed uint64) (*Tree, Selection) {
	t.Helper()
	target := lm.MustSyntheticLM(seed, 512, 8, 2.5, 0.05)
	draft := lm.MustDraftLM(target, 0.8, seed+1)
	tr := Root(lm.Context{ReqSeed: seed})
	var bb BeamBuilder
	if err := bb.Search(&tr, draft, 4, 3); err != nil {
		t.Fatal(err)
	}
	rng := mathutil.NewRNG(seed ^ 0xbeef)
	return &tr, Prefix(&tr, 1+rng.Intn(tr.Size()))
}

// TestVerifyIntoMatchesFresh is the pooling guarantee: VerifyInto with
// recycled result/scratch storage must produce results identical to a walk
// with fresh storage, across rules and many random trees, even when the recycled result
// previously held larger walks.
func TestVerifyIntoMatchesFresh(t *testing.T) {
	for _, rule := range []lm.VerifyRule{lm.RuleGreedy, lm.RuleSampleMatch} {
		t.Run(rule.String(), func(t *testing.T) {
			target := lm.MustSyntheticLM(42, 512, 8, 2.5, 0.05)
			var pooled VerifyResult
			var sc VerifyScratch
			for seed := uint64(1); seed <= 25; seed++ {
				_, sel := buildRandomTreeAndSelection(t, seed)
				// Identical RNG streams for the two walks.
				vFresh := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
				vPooled := lm.NewVerifier(target, rule, mathutil.NewRNG(seed))
				fresh := verify(sel, vFresh)
				VerifyInto(&pooled, sel, vPooled, &sc)
				// Element-wise comparison: the pooled result reuses non-nil
				// zero-length slices where a fresh walk may hold nil ones.
				same := len(fresh.Accepted) == len(pooled.Accepted) &&
					fresh.Correction == pooled.Correction &&
					fresh.TokensVerified == pooled.TokensVerified
				for i := 0; same && i < len(fresh.Accepted); i++ {
					same = fresh.Accepted[i] == pooled.Accepted[i]
				}
				if !same {
					t.Fatalf("seed %d: pooled result diverged:\nfresh  %+v\npooled %+v", seed, fresh, pooled)
				}
			}
		})
	}
}

// TestVerifyIntoMatchesVerify runs pooled-scratch verification against a
// walk with fresh storage over many trees and seeds.
func TestVerifyIntoMatchesVerify(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.8, 2)
	var sc VerifyScratch
	var res VerifyResult
	for i := 0; i < 100; i++ {
		tr := search(t, draft, lm.Context{ReqSeed: uint64(i)}, 5, 3)
		sel := Prefix(tr, 1+i%tr.Size())
		// Identical RNG state for both walks.
		v1 := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(uint64(i)))
		v2 := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(uint64(i)))
		want := verify(sel, v1)
		VerifyInto(&res, sel, v2, &sc)
		if want.Correction != res.Correction || len(want.Accepted) != len(res.Accepted) {
			t.Fatalf("tree %d: pooled verify diverged: %+v vs %+v", i, want, res)
		}
		for k := range want.Accepted {
			if want.Accepted[k] != res.Accepted[k] {
				t.Fatalf("tree %d: accepted prefix differs at %d", i, k)
			}
		}
		if want.TokensVerified != res.TokensVerified {
			t.Fatalf("tree %d: TokensVerified %d vs %d", i, want.TokensVerified, res.TokensVerified)
		}
	}
}
