package toktree

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// smallSpec is a two-level rank tree with a third-level leaf: the root's
// ranks 0 and 1 (nodes 1, 2), node 1's ranks 0 and 1 (nodes 3, 4), node 2's
// rank 0 (node 5) and node 3's rank 0 (node 6).
var smallSpec = []RankNode{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 0}, {3, 0}}

func buildSmallTree(t *testing.T) *Tree {
	t.Helper()
	_, draft := beamModels(t)
	tr := NewRankTree(lm.Context{ReqSeed: 1}, draft, smallSpec)
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTreeRoot(t *testing.T) {
	tr := Root(lm.Context{ReqSeed: 1})
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 1 || depth(&tr) != 0 {
		t.Fatalf("fresh tree size=%d depth=%d", tr.Size(), depth(&tr))
	}
	root := tr.Nodes[0]
	if len(root.Children) != 0 || root.PathProb != 1 || tr.ctx != (lm.Context{ReqSeed: 1}) {
		t.Fatalf("bad root %+v", root)
	}
}

// TestRankTreePathProbs pins NewRankTree's node fields: each node is its
// spec's rank under its spec's parent, one level deeper, with the product
// of the draft's rank probabilities along its root path.
func TestRankTreePathProbs(t *testing.T) {
	tr := buildSmallTree(t)
	probs := tr.draft.RankProbs()
	if tr.Size() != 1+len(smallSpec) {
		t.Fatalf("size %d, want %d", tr.Size(), 1+len(smallSpec))
	}
	ds := depths(tr)
	for i, s := range smallSpec {
		n, p := &tr.Nodes[i+1], &tr.Nodes[s.Parent]
		if ds[i+1] != ds[s.Parent]+1 || p.Children[s.Rank] != i+1 {
			t.Fatalf("node %d is %+v, want rank %d under node %d", i+1, *n, s.Rank, s.Parent)
		}
		if n.PathProb != p.PathProb*probs[s.Rank] {
			t.Fatalf("node %d: path prob %g, want %g", i+1, n.PathProb, p.PathProb*probs[s.Rank])
		}
	}
	// Node 6 is rank 0 three levels down.
	if want := probs[0] * probs[0] * probs[0]; tr.Nodes[6].PathProb != want || ds[6] != 3 {
		t.Fatalf("node 6: path prob %g depth %d, want %g at depth 3", tr.Nodes[6].PathProb, ds[6], want)
	}
}

// TestChildrenSortedByDraftProb checks that children come in descending
// draft probability order, read as siblings' path probabilities.
func TestChildrenSortedByDraftProb(t *testing.T) {
	tr := buildSmallTree(t)
	for id, n := range tr.Nodes {
		for k := 1; k < len(n.Children); k++ {
			if tr.Nodes[n.Children[k-1]].PathProb <= tr.Nodes[n.Children[k]].PathProb {
				t.Fatalf("node %d: children %v not in descending draft prob order", id, n.Children)
			}
		}
	}
	if len(tr.Nodes[0].Children) != 2 {
		t.Fatalf("root children %v", tr.Nodes[0].Children)
	}
}

// TestRankTreeDeepChainKeepsParentLinks builds a 200-deep rank-0 chain:
// every node must be the sole child of its parent, one level deeper.
func TestRankTreeDeepChainKeepsParentLinks(t *testing.T) {
	_, draft := beamModels(t)
	spec := make([]RankNode, 200)
	for i := range spec {
		spec[i] = RankNode{Parent: i}
	}
	tr := NewRankTree(lm.Context{ReqSeed: 2}, draft, spec)
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	ds := depths(tr)
	cur := 0
	for depth := 0; depth < 200; depth++ {
		ch := tr.Nodes[cur].Children
		if len(ch) != 1 || ds[ch[0]] != depth+1 {
			t.Fatalf("node %d at depth %d has children %v", cur, depth, ch)
		}
		cur = ch[0]
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildSmallTree(t)
	tr.Nodes[2].PathProb = 2.0 // exceeds parent
	if tr.validate() == nil {
		t.Fatal("validation missed excessive path prob")
	}
}

func TestSelectionBasics(t *testing.T) {
	tr := buildSmallTree(t)
	if sel := Prefix(tr, 1); !sel.has(0) || sel.has(1) || sel.Size() != 1 {
		t.Fatal("a one-node prefix should hold only the root")
	}
	// The three-node prefix is the root, node 1 (rank 0) and the likelier
	// of node 2 (rank 1) and node 3 (rank 0 under node 1).
	third := 2
	if tr.Nodes[3].PathProb > tr.Nodes[2].PathProb {
		third = 3
	}
	sel := Prefix(tr, 3)
	if sel.Size() != 3 {
		t.Fatalf("size %d", sel.Size())
	}
	for id := range tr.Nodes {
		if want := id == 0 || id == 1 || id == third; sel.has(id) != want {
			t.Fatalf("node %d selected %v, want %v", id, sel.has(id), want)
		}
	}
	wantE := 1 + tr.Nodes[1].PathProb + tr.Nodes[third].PathProb
	if diff := selectedPathProb(sel) - wantE; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("E[acc] %g, want %g", selectedPathProb(sel), wantE)
	}
}

// TestPrefixRejectsBadLength pins Prefix's guard: a selection holds the
// root and at most every node.
func TestPrefixRejectsBadLength(t *testing.T) {
	tr := buildSmallTree(t)
	for _, n := range []int{0, -1, tr.Size() + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Prefix(tree, %d) of a %d-node tree did not panic", n, tr.Size())
				}
			}()
			Prefix(tr, n)
		}()
	}
}

// TestRankTreeRejectsBadSpec pins NewRankTree's guard: a parent must
// precede its children, and siblings take the draft's ranks 0, 1, … in ID
// order, within the draft's candidate count.
func TestRankTreeRejectsBadSpec(t *testing.T) {
	_, draft := beamModels(t)
	branch := len(draft.RankProbs())
	chain := make([]RankNode, branch+1)
	for i := range chain {
		chain[i] = RankNode{Parent: 0, Rank: i}
	}
	for name, spec := range map[string][]RankNode{
		"parent after child": {{Parent: 1, Rank: 0}},
		"negative parent":    {{Parent: -1, Rank: 0}},
		"skipped rank":       {{Parent: 0, Rank: 1}},
		"repeated rank":      {{Parent: 0, Rank: 0}, {Parent: 0, Rank: 0}},
		"ranks out of order": {{Parent: 0, Rank: 1}, {Parent: 0, Rank: 0}},
		"past the last rank": chain,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: spec %v accepted", name, spec)
				}
			}()
			NewRankTree(lm.Context{}, draft, spec)
		}()
	}
}

// FuzzRankTree decodes random rank trees: each input byte picks the next
// node's parent among the nodes with a draft rank left, and the node takes
// that parent's next rank. The tree must pass validate (its greedy order
// is topological and sorted), hold the greedy order, children and path
// probabilities (bitwise) that the explicit-token builder addChild gives
// the same nodes added in ID order, and make every Prefix connected. One
// prefix, picked by the input, must verify as the eager-token walk does.
func FuzzRankTree(f *testing.F) {
	f.Add(uint64(1), uint8(15), []byte{0, 0, 1, 1, 2, 3})
	f.Add(uint64(2), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0})
	f.Add(uint64(3), uint8(3), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint64(4), uint8(0), []byte{7, 7, 7})
	// A wide root whose greedy walk accepts a non-first branch.
	f.Add(uint64(11), uint8(15), []byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, seed uint64, branchRaw uint8, data []byte) {
		branch := 1 + int(branchRaw%16)
		target := lm.MustSyntheticLM(seed, 512, branch, 0.05+float64(seed%500)/100, 0.05)
		draft := lm.MustDraftLM(target, 0.5, seed^0x5eed)
		probs := draft.RankProbs()
		if len(data) > 64 {
			data = data[:64]
		}
		kids := []int{0}
		var spec []RankNode
		var open []int
		for _, b := range data {
			open = open[:0]
			for p, n := range kids {
				if n < branch {
					open = append(open, p)
				}
			}
			p := open[int(b)%len(open)]
			spec = append(spec, RankNode{Parent: p, Rank: kids[p]})
			kids[p]++
			kids = append(kids, 0)
		}
		ctx := lm.Context{ReqSeed: seed}
		tr := NewRankTree(ctx, draft, spec)
		if err := tr.validate(); err != nil {
			t.Fatal(err)
		}
		ref := newRefTree(ctx)
		for i, s := range spec {
			addChild(ref, s.Parent, lm.Token(i+1), probs[s.Rank])
		}
		if !slices.Equal(tr.order, ref.order) {
			t.Fatalf("greedy order %v, addChild's %v", tr.order, ref.order)
		}
		for id := range ref.Nodes {
			g, w := &tr.Nodes[id], &ref.Nodes[id]
			if !slices.Equal(g.Children, w.Children) || g.rank != w.rank ||
				math.Float64bits(g.PathProb) != math.Float64bits(w.PathProb) {
				t.Fatalf("node %d is %+v, addChild's %+v", id, *g, *w)
			}
		}
		parents := tr.parents()
		for n := 1; n <= tr.Size(); n++ {
			sel := Prefix(tr, n)
			held := 0
			for id := range tr.Nodes {
				if !sel.has(id) {
					continue
				}
				held++
				if id > 0 && !sel.has(parents[id]) {
					t.Fatalf("prefix %d holds node %d but not its parent %d", n, id, parents[id])
				}
			}
			if held != n || !sel.has(0) {
				t.Fatalf("prefix %d holds %d nodes", n, held)
			}
		}
		eager := &refTree{Tree: *tr, tok: materialize(tr)}
		rule := lm.VerifyRule(seed % 2)
		n := tr.Size() - int(seed%uint64(tr.Size()))
		if diff := lazyVerifyDiff(&VerifyResult{}, &VerifyScratch{}, Prefix(tr, n), eager, target, rule, seed); diff != "" {
			t.Fatalf("%s prefix %d: %s", rule, n, diff)
		}
	})
}

// selectedPathProb is Σ f(v) over the selected nodes (== E[acc(T)]).
func selectedPathProb(sel Selection) float64 {
	sum := 0.0
	for id := range sel.tree.Nodes {
		if sel.has(id) {
			sum += sel.tree.Nodes[id].PathProb
		}
	}
	return sum
}

// TestTheorem31 verifies E[acc(T)] = Σ f(v) by Monte Carlo: the expected
// number of tokens committed by sample-match verification over a selected
// tree equals the sum of true path probabilities of selected nodes.
func TestTheorem31(t *testing.T) {
	target := lm.MustSyntheticLM(3, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 1.0, 4) // perfect draft: q = p = f
	ctx := lm.Context{ReqSeed: 77}

	tr := search(t, draft, ctx, 4, 3)
	sel := Prefix(tr, tr.Size())
	want := selectedPathProb(sel) // Σ f(v) with calibrated f

	rng := mathutil.NewRNG(123)
	v := lm.NewVerifier(target, lm.RuleSampleMatch, rng)
	var total int
	const n = 30000
	for i := 0; i < n; i++ {
		res := verify(sel, v)
		total += len(res.Accepted) + 1 // the accepted prefix plus the correction or bonus token
	}
	got := float64(total) / n
	if diff := got - want; diff > 0.05 || diff < -0.05 {
		t.Fatalf("Monte-Carlo E[acc] = %.3f, Theorem 3.1 predicts %.3f", got, want)
	}
}

// TestSelectionConnectivityProperty is the Appendix B property: repeatedly
// adding the highest-f frontier node (ties by lower ID) takes the nodes in
// the tree's greedy order, so every selection is a prefix of it, and every
// prefix is a connected subtree.
func TestSelectionConnectivityProperty(t *testing.T) {
	target := lm.MustSyntheticLM(5, 4096, 16, 2.0, 0.02)
	draft := lm.MustDraftLM(target, 0.8, 6)
	err := quick.Check(func(seed uint64, budgetRaw uint8) bool {
		budget := int(budgetRaw%20) + 1
		tr := search(t, draft, lm.Context{ReqSeed: seed}, 4, 3)
		parents := tr.parents()
		in := []bool{true}
		in = append(in, make([]bool, tr.Size()-1)...)
		for k := 1; k <= budget; k++ {
			// Greedy: highest-PathProb unselected node whose parent is in.
			best, bestP := -1, -1.0
			for id, n := range tr.Nodes {
				if id > 0 && !in[id] && in[parents[id]] && n.PathProb > bestP {
					best, bestP = id, n.PathProb
				}
			}
			if best < 0 {
				break
			}
			in[best] = true
			if tr.Order()[k] != best {
				return false
			}
			sel := Prefix(tr, k+1)
			for id := range tr.Nodes {
				if sel.has(id) != in[id] || (sel.has(id) && id > 0 && !sel.has(parents[id])) {
					return false
				}
			}
		}
		return tr.validate() == nil
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// validate checks structural invariants: every non-root node held by
// exactly one Children list, under a smaller ID,
// children sorted by draft probability (their path probabilities) and in
// greedy order, and path-probability monotonicity (child ≤ parent).
func (t *Tree) validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("toktree: empty tree")
	}
	if t.Nodes[0].PathProb != 1 {
		return fmt.Errorf("toktree: malformed root %+v", t.Nodes[0])
	}
	held := make([]int, len(t.Nodes))
	for i := range t.Nodes {
		p := &t.Nodes[i]
		for k, c := range p.Children {
			if c <= i || c >= len(t.Nodes) {
				return fmt.Errorf("toktree: node %d holds child %d", i, c)
			}
			held[c]++
			n := &t.Nodes[c]
			if n.PathProb > p.PathProb+1e-12 {
				return fmt.Errorf("toktree: node %d path prob %g exceeds parent %g", c, n.PathProb, p.PathProb)
			}
			if k == 0 {
				continue
			}
			if prev := &t.Nodes[p.Children[k-1]]; prev.PathProb < n.PathProb {
				return fmt.Errorf("toktree: node %d children not sorted", i)
			} else if prev.rank > n.rank {
				// VerifyInto's precondition: a node's selected children are
				// its first ones.
				return fmt.Errorf("toktree: node %d's children out of greedy order", i)
			}
		}
	}
	for id := 1; id < len(held); id++ {
		if held[id] != 1 {
			return fmt.Errorf("toktree: node %d is held by %d children lists", id, held[id])
		}
	}
	return t.validateOrder()
}

// parents returns each node's parent ID, read from the Children lists (-1
// for the root).
func (t *Tree) parents() []int {
	ps := make([]int, len(t.Nodes))
	ps[0] = -1
	for p, n := range t.Nodes {
		for _, c := range n.Children {
			ps[c] = p
		}
	}
	return ps
}

// validateOrder checks the greedy order: a permutation of the node IDs,
// sorted by (PathProb desc, ID asc), matching every node's rank, with every
// parent ahead of its children.
func (t *Tree) validateOrder() error {
	if len(t.order) != len(t.Nodes) {
		return fmt.Errorf("toktree: order holds %d of %d nodes", len(t.order), len(t.Nodes))
	}
	parents := t.parents()
	for r, id := range t.order {
		if id < 0 || id >= len(t.Nodes) || t.Nodes[id].rank != r {
			return fmt.Errorf("toktree: order position %d holds node %d of another rank", r, id)
		}
		if r > 0 {
			a, b := &t.Nodes[t.order[r-1]], &t.Nodes[id]
			if a.PathProb < b.PathProb || (a.PathProb == b.PathProb && t.order[r-1] > id) {
				return fmt.Errorf("toktree: order positions %d and %d out of greedy order", r-1, r)
			}
		}
		if id > 0 && t.Nodes[parents[id]].rank >= r {
			return fmt.Errorf("toktree: node %d ranks ahead of its parent", id)
		}
	}
	return nil
}

// depths returns each node's depth, derived from the Children lists
// (parents before children: a child's ID is larger than its parent's).
func depths(t *Tree) []int {
	ds := make([]int, len(t.Nodes))
	for p, n := range t.Nodes {
		for _, c := range n.Children {
			ds[c] = ds[p] + 1
		}
	}
	return ds
}

// materialize returns every node's token by ID (0 at the root), read as
// verification reads them: node p's child j is the draft's rank-j
// candidate in one draft Dist at p's context, parents before children.
func materialize(t *Tree) []lm.Token {
	toks := make([]lm.Token, len(t.Nodes))
	ctxs := make([]lm.Context, len(t.Nodes))
	ctxs[0] = t.ctx
	for p, n := range t.Nodes {
		if len(n.Children) == 0 {
			continue
		}
		dist := t.draft.Dist(ctxs[p])
		for j, c := range n.Children {
			toks[c] = dist.Token(j)
			ctxs[c] = ctxs[p].Extend(toks[c])
		}
	}
	return toks
}
