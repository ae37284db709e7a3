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
// target's argmax after tok[1..k-1].
type chain struct {
	target *lm.SyntheticLM
	tok    []lm.Token
	// onChain holds the contexts the chain passes through: the root's and
	// each one extended by tok[1..k].
	onChain map[lm.Context]bool
}

const chainVocab = 256

func newChain() chain {
	c := chain{
		target:  lm.MustSyntheticLM(3, chainVocab, 16, 3.2, 0.02),
		tok:     []lm.Token{10},
		onChain: map[lm.Context]bool{},
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

// wrong returns the i-th (i >= 1) of the tokens the greedy target rejects
// at depth k: a token other than tok[k].
func (c chain) wrong(k, i int) lm.Token { return c.tok[k] ^ lm.Token(i) }

// greedyVerifier builds a verifier over the chain with the deterministic
// rule.
func (c chain) greedyVerifier() *lm.Verifier {
	return lm.NewVerifier(c, lm.RuleGreedy, mathutil.NewRNG(1))
}

// chainCtx is a context whose history ends in the root token, matching how
// the engine roots trees at the request's last committed token.
func chainCtx(root lm.Token) lm.Context {
	return lm.Context{ReqSeed: 7}.Extend(root)
}

func TestVerifyAcceptsLongestCorrectPrefix(t *testing.T) {
	// The chain's tok[1] -> tok[2] is the correct continuation; siblings
	// wrong(1) (depth 1) and wrong(2) (depth 2) are rejected. Node tok[3]
	// hangs off the WRONG sibling, so it must never be reached even though
	// its token would be acceptable elsewhere.
	c := newChain()
	tr := NewTree(chainCtx(10), 10)
	n1 := tr.AddChild(0, c.tok[1], 0.6)
	nw := tr.AddChild(0, c.wrong(1, 1), 0.3)
	tr.AddChild(n1, c.tok[2], 0.7)
	tr.AddChild(n1, c.wrong(2, 1), 0.2)
	tr.AddChild(nw, c.tok[3], 0.5)
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
}

func TestVerifyRejectionEmitsCorrection(t *testing.T) {
	// No child carries the correct token tok[1]: the walk stops at the
	// root and the correction is the target argmax there.
	c := newChain()
	tr := NewTree(chainCtx(10), 10)
	tr.AddChild(0, c.wrong(1, 1), 0.6)
	tr.AddChild(0, c.wrong(1, 2), 0.3)
	sel := Prefix(tr, 3)
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
	// selected (it is the less likely sibling, outside the two-node
	// prefix): verification must not see it and must reject the selected
	// sibling.
	c := newChain()
	tr := NewTree(chainCtx(10), 10)
	right := tr.AddChild(0, c.tok[1], 0.3)
	tr.AddChild(0, c.wrong(1, 1), 0.6)
	sel := Prefix(tr, 2)
	if sel.has(right) {
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
	tr := NewTree(chainCtx(10), 10)
	sel := Prefix(tr, 1)
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
	// A fully correct selected chain of depth 4: everything accepted plus
	// the bonus token at the end.
	c := newChain()
	tr := NewTree(chainCtx(10), 10)
	parent := 0
	for d := 1; d <= 4; d++ {
		parent = tr.AddChild(parent, c.tok[d], 0.9)
	}
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
	tr := NewTree(lm.Context{ReqSeed: seed}, lm.Token(seed%256))
	var bb BeamBuilder
	if err := bb.Search(tr, draft, 4, 3); err != nil {
		t.Fatal(err)
	}
	rng := mathutil.NewRNG(seed ^ 0xbeef)
	return tr, Prefix(tr, 1+rng.Intn(tr.Size()))
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
