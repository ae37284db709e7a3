package toktree

import (
	"fmt"
	"testing"
	"testing/quick"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func buildSmallTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(lm.Context{ReqSeed: 1}, 42)
	a := tr.AddChild(0, 100, 0.7)
	b := tr.AddChild(0, 101, 0.2)
	c := tr.AddChild(a, 102, 0.6)
	tr.AddChild(a, 103, 0.3)
	tr.AddChild(b, 104, 0.5)
	tr.AddChild(c, 105, 0.9)
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewTreeRoot(t *testing.T) {
	tr := NewTree(lm.Context{ReqSeed: 1}, 42)
	if tr.Size() != 1 || depth(tr) != 0 {
		t.Fatalf("fresh tree size=%d depth=%d", tr.Size(), depth(tr))
	}
	root := tr.Nodes[0]
	if root.parent != -1 || root.PathProb != 1 || root.token != 42 {
		t.Fatalf("bad root %+v", root)
	}
}

func TestAddChildPathProbs(t *testing.T) {
	tr := buildSmallTree(t)
	// Node 3 (token 102) is child of node 1 (0.7): path = 0.42.
	var found bool
	for _, n := range tr.Nodes {
		if n.token == 102 {
			found = true
			if diff := n.PathProb - 0.42; diff > 1e-12 || diff < -1e-12 {
				t.Fatalf("path prob %g, want 0.42", n.PathProb)
			}
			if n.depth != 2 {
				t.Fatalf("depth %d, want 2", n.depth)
			}
		}
	}
	if !found {
		t.Fatal("node 102 missing")
	}
}

func TestChildrenSortedByDraftProb(t *testing.T) {
	tr := buildSmallTree(t)
	ch := tr.Nodes[0].Children
	if len(ch) != 2 {
		t.Fatalf("root children %v", ch)
	}
	if tr.Nodes[ch[0]].draftProb < tr.Nodes[ch[1]].draftProb {
		t.Fatal("children not sorted by descending draft prob")
	}
}

func TestAddChildManyNodesKeepsParentLinks(t *testing.T) {
	// Regression test for the slice-reallocation aliasing bug: adding many
	// nodes must keep every child list reachable from its (possibly moved)
	// parent.
	tr := NewTree(lm.Context{ReqSeed: 2}, 0)
	parent := 0
	for i := 0; i < 200; i++ {
		parent = tr.AddChild(parent, lm.Token(i), 0.9)
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
	// The chain must be fully connected: 200 nodes of strictly increasing
	// depth, each the sole child of its parent.
	cur := 0
	for depth := 0; depth < 200; depth++ {
		ch := tr.Nodes[cur].Children
		if len(ch) != 1 {
			t.Fatalf("node %d at depth %d has %d children", cur, depth, len(ch))
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
	// Greedy order: root 1, a 0.7, c 0.42, c's child 0.378, ... so the
	// three-node prefix is the root, a and c.
	sel := Prefix(tr, 3)
	if sel.Size() != 3 {
		t.Fatalf("size %d", sel.Size())
	}
	for id := range tr.Nodes {
		if want := id == 0 || id == 1 || id == 3; sel.has(id) != want {
			t.Fatalf("node %d selected %v, want %v", id, sel.has(id), want)
		}
	}
	wantE := 1 + tr.Nodes[1].PathProb + tr.Nodes[3].PathProb
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

// TestAddChildRejectsDraftProbAboveOne pins the bound that keeps the
// greedy order topological.
func TestAddChildRejectsDraftProbAboveOne(t *testing.T) {
	tr := buildSmallTree(t)
	defer func() {
		if recover() == nil {
			t.Fatal("draft prob 1.5 accepted")
		}
	}()
	tr.AddChild(1, 7, 1.5)
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

	tr := search(t, draft, ctx, 5, 4, 3)
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
		tr := search(t, draft, lm.Context{ReqSeed: seed}, 0, 4, 3)
		in := []bool{true}
		in = append(in, make([]bool, tr.Size()-1)...)
		for k := 1; k <= budget; k++ {
			// Greedy: highest-PathProb unselected node whose parent is in.
			best, bestP := -1, -1.0
			for id, n := range tr.Nodes {
				if id > 0 && !in[id] && in[n.parent] && n.PathProb > bestP {
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
				if sel.has(id) != in[id] || (sel.has(id) && id > 0 && !sel.has(tr.Nodes[id].parent)) {
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

// validate checks structural invariants: parent links, depths, sorted
// children, and path-probability monotonicity (child ≤ parent).
func (t *Tree) validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("toktree: empty tree")
	}
	if t.Nodes[0].parent != -1 || t.Nodes[0].depth != 0 || t.Nodes[0].PathProb != 1 {
		return fmt.Errorf("toktree: malformed root %+v", t.Nodes[0])
	}
	for i := 1; i < len(t.Nodes); i++ {
		n := &t.Nodes[i]
		if n.parent < 0 || n.parent >= len(t.Nodes) {
			return fmt.Errorf("toktree: node %d parent %d out of range", i, n.parent)
		}
		p := &t.Nodes[n.parent]
		if n.depth != p.depth+1 {
			return fmt.Errorf("toktree: node %d depth %d, parent depth %d", i, n.depth, p.depth)
		}
		if n.PathProb > p.PathProb+1e-12 {
			return fmt.Errorf("toktree: node %d path prob %g exceeds parent %g", i, n.PathProb, p.PathProb)
		}
		if n.draftProb < 0 || n.draftProb > 1+1e-12 {
			return fmt.Errorf("toktree: node %d draft prob %g out of range", i, n.draftProb)
		}
	}
	for i := range t.Nodes {
		ch := t.Nodes[i].Children
		for k := 1; k < len(ch); k++ {
			if t.Nodes[ch[k-1]].draftProb < t.Nodes[ch[k]].draftProb {
				return fmt.Errorf("toktree: node %d children not sorted", i)
			}
		}
		for k, c := range ch {
			if t.Nodes[c].parent != i {
				return fmt.Errorf("toktree: child %d of %d has parent %d", c, i, t.Nodes[c].parent)
			}
			// fill's precondition: a searched tree's selected children are
			// its first ones.
			if t.draft != nil && k > 0 && t.Nodes[c].rank < t.Nodes[ch[k-1]].rank {
				return fmt.Errorf("toktree: node %d's children out of greedy order", i)
			}
		}
	}
	return t.validateOrder()
}

// validateOrder checks the greedy order: a permutation of the node IDs,
// sorted by (PathProb desc, ID asc), matching every node's rank, with every
// parent ahead of its children.
func (t *Tree) validateOrder() error {
	if len(t.order) != len(t.Nodes) {
		return fmt.Errorf("toktree: order holds %d of %d nodes", len(t.order), len(t.Nodes))
	}
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
		if id > 0 && t.Nodes[t.Nodes[id].parent].rank >= r {
			return fmt.Errorf("toktree: node %d ranks ahead of its parent", id)
		}
	}
	return nil
}

// materialize fills every pending token of a searched tree through fill,
// the on-demand fill verification uses, parents before children (a
// child's ID is larger than its parent's), and leaves the tree with every
// token set.
func (t *Tree) materialize() {
	ctxs := make([]lm.Context, len(t.Nodes))
	ctxs[0] = t.ctx
	for p := range t.Nodes {
		ch := t.Nodes[p].Children
		if len(ch) == 0 {
			continue
		}
		t.fill(p, ctxs[p], len(ch))
		for _, c := range ch {
			ctxs[c] = ctxs[p].Extend(t.Nodes[c].token)
		}
	}
	t.draft = nil
}
