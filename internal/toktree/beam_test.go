package toktree

import (
	"slices"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func beamModels(t *testing.T) (*lm.SyntheticLM, *lm.DraftLM) {
	t.Helper()
	target := lm.MustSyntheticLM(11, 4096, 16, 3.2, 0.02)
	return target, lm.MustDraftLM(target, 0.85, 12)
}

// search grows a fresh depth-d, width-w candidate tree at ctx.
func search(t testing.TB, draft *lm.DraftLM, ctx lm.Context, d, w int) *Tree {
	t.Helper()
	tr := Root(ctx)
	var bb BeamBuilder
	if err := bb.Search(&tr, draft, d, w); err != nil {
		t.Fatal(err)
	}
	return &tr
}

// verify runs one verification walk with fresh result and scratch storage.
func verify(sel Selection, v *lm.Verifier) *VerifyResult {
	var res VerifyResult
	VerifyInto(&res, sel, v, &VerifyScratch{})
	return &res
}

// depth returns the deepest node's depth.
func depth(tr *Tree) int {
	return slices.Max(depths(tr))
}

func TestBeamSearchShape(t *testing.T) {
	_, draft := beamModels(t)
	for _, c := range []struct{ d, w int }{{1, 1}, {3, 2}, {5, 4}, {8, 1}} {
		tr := search(t, draft, lm.Context{ReqSeed: 3}, c.d, c.w)
		if err := tr.validate(); err != nil {
			t.Fatalf("d=%d w=%d: %v", c.d, c.w, err)
		}
		if got := depth(tr); got != c.d {
			t.Errorf("d=%d w=%d: depth %d", c.d, c.w, got)
		}
		// Level sizes: level 1..d hold at most w nodes; total ≤ 1 + d*w.
		perLevel := make(map[int]int)
		for _, d := range depths(tr)[1:] {
			perLevel[d]++
		}
		for lvl := 1; lvl <= c.d; lvl++ {
			if perLevel[lvl] > c.w {
				t.Errorf("d=%d w=%d: level %d has %d nodes", c.d, c.w, lvl, perLevel[lvl])
			}
			if perLevel[lvl] == 0 {
				t.Errorf("d=%d w=%d: level %d empty", c.d, c.w, lvl)
			}
		}
		if tr.Size() > 1+c.d*c.w {
			t.Errorf("d=%d w=%d: size %d exceeds 1+d*w", c.d, c.w, tr.Size())
		}
	}
}

func TestBeamSearchDepthZero(t *testing.T) {
	_, draft := beamModels(t)
	tr := Root(lm.Context{ReqSeed: 3})
	var bb BeamBuilder
	if err := bb.Search(&tr, draft, 0, 4); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 {
		t.Fatal("depth-0 beam should produce a bare root")
	}
}

func TestBeamSearchRejectsBadParams(t *testing.T) {
	_, draft := beamModels(t)
	var bb BeamBuilder
	tr := Root(lm.Context{})
	if err := bb.Search(&tr, draft, -1, 2); err == nil {
		t.Error("negative depth accepted")
	}
	if err := bb.Search(&tr, draft, 2, 0); err == nil {
		t.Error("zero width accepted")
	}
}

// The engine charges every search d draft steps: each step proposes at
// least one candidate, so the sorted reference runs all d steps and the
// tree reaches depth d.
func TestBeamSearchCostAccounting(t *testing.T) {
	_, draft := beamModels(t)
	ctx := lm.Context{ReqSeed: 5}
	if steps := refSearch(newRefTree(ctx), draft, 4, 3); steps != 4 {
		t.Fatalf("reference ran %d steps, want 4", steps)
	}
	if got := depth(search(t, draft, ctx, 4, 3)); got != 4 {
		t.Fatalf("depth %d, want 4", got)
	}
}

func TestBeamSearchKeepsHighestPathProbs(t *testing.T) {
	// Every node in the beam tree at level L must have path probability at
	// least as high as any non-expanded alternative at that level would —
	// spot-check: the level-1 nodes are exactly the draft's top-w.
	_, draft := beamModels(t)
	ctx := lm.Context{ReqSeed: 17}
	tr := search(t, draft, ctx, 2, 3)
	toks, ds := materialize(tr), depths(tr)
	dist := draft.Dist(ctx)
	top := []lm.Token{dist.Token(0), dist.Token(1), dist.Token(2)}
	var level1 []lm.Token
	for id := 1; id < tr.Size(); id++ {
		if ds[id] == 1 {
			level1 = append(level1, toks[id])
		}
	}
	if len(level1) != 3 {
		t.Fatalf("level 1 has %d nodes", len(level1))
	}
	for _, want := range top {
		found := false
		for _, tok := range level1 {
			if tok == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("draft top token %d missing from level 1", want)
		}
	}
}

// TestChainSpeculateIsWidthOne pins the static sequence speculation of the
// vLLM-Spec baselines: a width-1 beam is a chain that follows the draft's
// argmax at every step.
func TestChainSpeculateIsWidthOne(t *testing.T) {
	_, draft := beamModels(t)
	tr := search(t, draft, lm.Context{ReqSeed: 5}, 6, 1)
	toks := materialize(tr)
	if tr.Size() != 7 {
		t.Fatalf("chain size %d, want 7", tr.Size())
	}
	for _, n := range tr.Nodes {
		if len(n.Children) > 1 {
			t.Fatal("chain has branching")
		}
	}
	// The chain follows the draft argmax at each step.
	ctx := lm.Context{ReqSeed: 5}
	cur := 0
	for depth := 0; depth < 6; depth++ {
		want := draft.Dist(ctx).Argmax()
		child := tr.Nodes[cur].Children[0]
		if got := toks[child]; got != want {
			t.Fatalf("depth %d: chain token %d, draft argmax %d", depth, got, want)
		}
		ctx = ctx.Extend(want)
		cur = child
	}
}

// TestTheorem41 checks the candidate-tree covering property: the optimal
// budget-B draft tree (greedy by true path probability) is a subtree of the
// beam-search candidate tree with width B and the optimal tree's depth.
func TestTheorem41(t *testing.T) {
	target := lm.MustSyntheticLM(23, 4096, 16, 2.4, 0.02)
	draft := lm.MustDraftLM(target, 1.0, 24)
	for seed := uint64(0); seed < 20; seed++ {
		ctx := lm.Context{ReqSeed: seed}
		const budget = 8
		// Reference: greedily grow the optimal tree against the draft
		// (known-f oracle), unconstrained by beams.
		type node struct {
			ctx  lm.Context
			path []lm.Token
			f    float64
		}
		selected := []node{{ctx: ctx, f: 1}}
		frontier := []node{}
		expand := func(n node) {
			dist := draft.Dist(n.ctx)
			probs := draft.RankProbs()
			for r := range len(probs) {
				tok := dist.Token(r)
				frontier = append(frontier, node{
					ctx:  n.ctx.Extend(tok),
					path: append(append([]lm.Token(nil), n.path...), tok),
					f:    n.f * probs[r],
				})
			}
		}
		expand(selected[0])
		for len(selected) < budget {
			best := -1
			for i := range frontier {
				if best < 0 || frontier[i].f > frontier[best].f {
					best = i
				}
			}
			n := frontier[best]
			frontier = append(frontier[:best], frontier[best+1:]...)
			selected = append(selected, n)
			expand(n)
		}
		maxDepth := 0
		for _, n := range selected {
			if len(n.path) > maxDepth {
				maxDepth = len(n.path)
			}
		}

		// Candidate tree: beam search with width = budget, depth = D_opt.
		cand := search(t, draft, ctx, maxDepth, budget)
		toks := materialize(cand)
		// Every optimal node's path must exist in the candidate tree.
		for _, n := range selected[1:] {
			if !containsPath(cand, toks, n.path) {
				t.Fatalf("seed %d: optimal path %v missing from beam(%d, %d) candidate tree",
					seed, n.path, maxDepth, budget)
			}
		}
	}
}

// containsPath reports whether path spells a root-descending path of t,
// whose node tokens are toks.
func containsPath(t *Tree, toks, path []lm.Token) bool {
	cur := 0
	for _, tok := range path {
		next := -1
		for _, c := range t.Nodes[cur].Children {
			if toks[c] == tok {
				next = c
				break
			}
		}
		if next < 0 {
			return false
		}
		cur = next
	}
	return true
}

func TestVerifyCommitsAtLeastOneToken(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(9))
	sel := Prefix(search(t, draft, lm.Context{ReqSeed: 31}, 4, 2), 1)
	for i := 0; i < 200; i++ {
		res := verify(sel, v)
		if len(res.Accepted) != 0 {
			t.Fatalf("root-only selection accepted %v", res.Accepted)
		}
		if res.TokensVerified != sel.Size() {
			t.Fatalf("verified %d tokens, selection size %d", res.TokensVerified, sel.Size())
		}
	}
}

func TestVerifyAcceptedPathIsTreePath(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(9))
	tr := search(t, draft, lm.Context{ReqSeed: 33}, 5, 3)
	sel := Prefix(tr, tr.Size())
	toks := materialize(tr)
	for i := 0; i < 100; i++ {
		res := verify(sel, v)
		// The accepted tokens must spell a root-descending path of
		// selected nodes.
		prev := 0
		for j, tok := range res.Accepted {
			next := -1
			for _, c := range tr.Nodes[prev].Children {
				if sel.has(c) && toks[c] == tok {
					next = c
				}
			}
			if next < 0 {
				t.Fatalf("accepted token %d at position %d is no selected child of node %d", tok, j, prev)
			}
			prev = next
		}
	}
}

func TestVerifyGreedyDeterministic(t *testing.T) {
	target, draft := beamModels(t)
	v := lm.NewVerifier(target, lm.RuleGreedy, mathutil.NewRNG(9))
	tr := search(t, draft, lm.Context{ReqSeed: 35}, 4, 2)
	sel := Prefix(tr, tr.Size())
	a := verify(sel, v)
	b := verify(sel, v)
	if len(a.Accepted) != len(b.Accepted) || a.Correction != b.Correction {
		t.Fatal("greedy verification should be deterministic")
	}
}

// TestReusedBeamMatchesFresh drives one reused BeamBuilder through many
// searches over random depths and widths and checks every tree equals one
// grown by a fresh builder from the same inputs, node for node and token
// for token: the shapes a builder keeps must not depend on the searches
// before, which the engine relies on.
func TestReusedBeamMatchesFresh(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.85, 2)
	var bb BeamBuilder
	rng := mathutil.NewRNG(42)
	for i := 0; i < 200; i++ {
		ctx := lm.Context{ReqSeed: uint64(i % 13)}.Extend(lm.Token(rng.Intn(64)))
		d, w := 1+rng.Intn(7), 1+rng.Intn(4)
		reused := Root(ctx)
		if err := bb.Search(&reused, draft, d, w); err != nil {
			t.Fatal(err)
		}
		if err := reused.validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		fresh := search(t, draft, ctx, d, w)
		if diff := diffTrees(&reused, &refTree{Tree: *fresh, tok: materialize(fresh)}); diff != "" {
			t.Fatalf("iteration %d (d=%d w=%d): %s", i, d, w, diff)
		}
	}
}
