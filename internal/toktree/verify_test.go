package toktree

import (
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// chainLM is a scripted target model for white-box verification tests: its
// argmax (and essentially all its mass) sits on lastToken+1, so the
// "correct" continuation of token t is t+1. That makes accepted prefixes
// fully predictable under the greedy rule. A verification walk only extends
// its context along accepted tokens, so the model knows every context the
// walk can reach: chainCtx(root) extended by root+1, root+2, ….
type chainLM struct{ last map[lm.Context]lm.Token }

const chainVocab = 256

func newChainLM(root lm.Token) chainLM {
	m := chainLM{last: map[lm.Context]lm.Token{}}
	ctx := chainCtx(root)
	for tok := root; tok <= root+8; tok++ {
		if tok != root {
			ctx = ctx.Extend(tok)
		}
		m.last[ctx] = tok
	}
	return m
}

func (m chainLM) Dist(ctx lm.Context) lm.Dist {
	last, ok := m.last[ctx]
	if !ok {
		panic("chainLM: context off the correct chain")
	}
	next := (last + 1) % chainVocab
	other := (next + 1) % chainVocab
	return lm.Dist{
		Entries: []lm.TokenProb{{Token: next, Prob: 0.9}, {Token: other, Prob: 0.1}},
	}
}

// greedyVerifier builds a verifier over chainLM rooted at token 10 with the
// deterministic rule.
func greedyVerifier() *lm.Verifier {
	return lm.NewVerifier(newChainLM(10), lm.RuleGreedy, mathutil.NewRNG(1))
}

// chainCtx is a context whose history ends in the root token, matching how
// the engine roots trees at the request's last committed token.
func chainCtx(root lm.Token) lm.Context {
	return lm.Context{ReqSeed: 7}.Extend(root)
}

func TestVerifyAcceptsLongestCorrectPrefix(t *testing.T) {
	// Tree rooted at 10. Chain 11 -> 12 is the "correct" continuation;
	// siblings 99 (depth 1) and 77 (depth 2) are wrong. Node 13 hangs off
	// the WRONG sibling 99, so it must never be reached even though its
	// token would be acceptable elsewhere.
	tr := NewTree(chainCtx(10), 10)
	n11 := tr.AddChild(0, 11, 0.6)
	n99 := tr.AddChild(0, 99, 0.3)
	tr.AddChild(n11, 12, 0.7)
	tr.AddChild(n11, 77, 0.2)
	tr.AddChild(n99, 13, 0.5)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	sel := NewSelection(tr)
	for id := 1; id < tr.Size(); id++ {
		sel.Add(id)
	}
	res := verify(sel, greedyVerifier())
	if want := []lm.Token{11, 12}; !reflect.DeepEqual(res.Accepted, want) {
		t.Fatalf("accepted %v, want %v", res.Accepted, want)
	}
	// Past the last selected node on the accepted path: bonus = argmax
	// after ...11,12 = 13.
	if res.Correction != 13 {
		t.Fatalf("bonus token %d, want 13", res.Correction)
	}
	if res.TokensVerified != sel.Size() {
		t.Fatalf("tokens verified %d, want selection size %d", res.TokensVerified, sel.Size())
	}
}

func TestVerifyRejectionEmitsCorrection(t *testing.T) {
	// No child carries the correct token 11: the walk stops at the root and
	// the correction is the target argmax there.
	tr := NewTree(chainCtx(10), 10)
	tr.AddChild(0, 99, 0.6)
	tr.AddChild(0, 50, 0.3)
	sel := NewSelection(tr)
	sel.Add(1)
	sel.Add(2)
	res := verify(sel, greedyVerifier())
	if len(res.Accepted) != 0 {
		t.Fatalf("accepted %v, want none", res.Accepted)
	}
	if res.Correction != 11 {
		t.Fatalf("correction %d, want target argmax 11", res.Correction)
	}
}

func TestVerifyRespectsSelection(t *testing.T) {
	// The correct child 11 exists in the candidate tree but is NOT
	// selected: verification must not see it and must reject the selected
	// sibling.
	tr := NewTree(chainCtx(10), 10)
	tr.AddChild(0, 11, 0.6)
	n99 := tr.AddChild(0, 99, 0.3)
	sel := NewSelection(tr)
	sel.Add(n99)
	res := verify(sel, greedyVerifier())
	if len(res.Accepted) != 0 || res.Correction != 11 {
		t.Fatalf("selection leak: accepted %v correction %d", res.Accepted, res.Correction)
	}
	if res.TokensVerified != 2 {
		t.Fatalf("tokens verified %d, want 2 (root + one child)", res.TokensVerified)
	}
}

func TestVerifyRootOnlyTree(t *testing.T) {
	// Empty tree (root only, nothing speculated): verification degenerates
	// to plain decoding — no accepted tokens, bonus from the root context.
	tr := NewTree(chainCtx(10), 10)
	sel := NewSelection(tr)
	res := verify(sel, greedyVerifier())
	if len(res.Accepted) != 0 {
		t.Fatalf("root-only tree accepted %v", res.Accepted)
	}
	if res.Correction != 11 {
		t.Fatalf("bonus %d, want 11", res.Correction)
	}
	if res.TokensVerified != 1 {
		t.Fatalf("tokens verified %d, want 1", res.TokensVerified)
	}
}

func TestVerifyFullAcceptanceChain(t *testing.T) {
	// A fully correct selected chain of depth 4: everything accepted plus
	// the bonus token at the end.
	tr := NewTree(chainCtx(10), 10)
	parent := 0
	for d := 1; d <= 4; d++ {
		parent = tr.AddChild(parent, lm.Token(10+d), 0.9)
	}
	sel := NewSelection(tr)
	for id := 1; id < tr.Size(); id++ {
		sel.Add(id)
	}
	res := verify(sel, greedyVerifier())
	if want := []lm.Token{11, 12, 13, 14}; !reflect.DeepEqual(res.Accepted, want) {
		t.Fatalf("accepted %v, want %v", res.Accepted, want)
	}
	if res.Correction != 15 {
		t.Fatalf("bonus %d, want 15", res.Correction)
	}
}

// buildRandomTreeAndSelection grows a random candidate tree via the real
// beam builder over a synthetic draft model and selects a random connected
// subset, so equivalence tests cover realistic shapes.
func buildRandomTreeAndSelection(t *testing.T, seed uint64) (*Tree, *Selection) {
	t.Helper()
	target := lm.MustSyntheticLM(seed, 512, 8, 2.5, 0.05)
	draft := lm.MustDraftLM(target, 0.8, seed+1)
	tr := NewTree(lm.Context{ReqSeed: seed}, lm.Token(seed%256))
	var bb BeamBuilder
	if _, err := bb.Search(tr, draft, 4, 3); err != nil {
		t.Fatal(err)
	}
	sel := NewSelection(tr)
	rng := mathutil.NewRNG(seed ^ 0xbeef)
	for id := 1; id < tr.Size(); id++ {
		if sel.Has(tr.Nodes[id].parent) && rng.Float64() < 0.7 {
			sel.Add(id)
		}
	}
	return tr, sel
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
