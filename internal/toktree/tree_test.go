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
	sel := NewSelection(tr)
	if !sel.has(0) || sel.Size() != 1 || sel.sumPathProb != 1 {
		t.Fatal("fresh selection should hold only the root")
	}
	sel.Add(1)
	sel.Add(3)
	if sel.Size() != 3 {
		t.Fatalf("size %d", sel.Size())
	}
	wantE := 1 + tr.Nodes[1].PathProb + tr.Nodes[3].PathProb
	if diff := sel.sumPathProb - wantE; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("E[acc] %g, want %g", sel.sumPathProb, wantE)
	}
	if err := sel.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionRejectsOrphanAdd(t *testing.T) {
	tr := buildSmallTree(t)
	sel := NewSelection(tr)
	defer func() {
		if recover() == nil {
			t.Fatal("adding a node before its parent did not panic")
		}
	}()
	// Node with token 105 is at depth 3; its parent is unselected.
	for id, n := range tr.Nodes {
		if n.token == 105 {
			sel.Add(id)
		}
	}
}

func TestSelectionRejectsDoubleAdd(t *testing.T) {
	tr := buildSmallTree(t)
	sel := NewSelection(tr)
	sel.Add(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double add did not panic")
		}
	}()
	sel.Add(1)
}

// TestTheorem31 verifies E[acc(T)] = Σ f(v) by Monte Carlo: the expected
// number of tokens committed by sample-match verification over a selected
// tree equals the sum of true path probabilities of selected nodes.
func TestTheorem31(t *testing.T) {
	target := lm.MustSyntheticLM(3, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 1.0, 4) // perfect draft: q = p = f
	ctx := lm.Context{ReqSeed: 77}

	tr := search(t, draft, ctx, 5, 4, 3)
	sel := NewSelection(tr)
	for id := 1; id < tr.Size(); id++ {
		if sel.has(tr.Nodes[id].parent) {
			sel.Add(id)
		}
	}
	want := sel.sumPathProb // Σ f(v) with calibrated f

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

// TestSelectionConnectivityProperty is the Appendix B property: any
// selection built by repeatedly adding the highest-f frontier node is a
// connected subtree.
func TestSelectionConnectivityProperty(t *testing.T) {
	target := lm.MustSyntheticLM(5, 4096, 16, 2.0, 0.02)
	draft := lm.MustDraftLM(target, 0.8, 6)
	err := quick.Check(func(seed uint64, budgetRaw uint8) bool {
		budget := int(budgetRaw%20) + 1
		tr := search(t, draft, lm.Context{ReqSeed: seed}, 0, 4, 3)
		sel := NewSelection(tr)
		for i := 0; i < budget; i++ {
			// Greedy: highest-PathProb unselected node whose parent is in.
			best, bestP := -1, -1.0
			for id, n := range tr.Nodes {
				if id > 0 && !sel.has(id) && sel.has(n.parent) && n.PathProb > bestP {
					best, bestP = id, n.PathProb
				}
			}
			if best < 0 {
				break
			}
			sel.Add(best)
		}
		return sel.Validate() == nil
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
		for _, c := range ch {
			if t.Nodes[c].parent != i {
				return fmt.Errorf("toktree: child %d of %d has parent %d", c, i, t.Nodes[c].parent)
			}
		}
	}
	return nil
}
