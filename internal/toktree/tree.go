// Package toktree implements draft token trees: the beam-search candidate
// trees produced during AdaServe's speculation phase, the selected draft
// trees submitted for verification, and tree-based parallel verification.
//
// Conventions (following the paper, §3):
//
//   - Every tree is rooted at the request's last generated token. The root
//     has path probability f(root) = 1: verification always commits at least
//     one new token (the bonus/correction token), so the root counts toward
//     acc(T) and toward the token budget.
//   - A node's path probability is the product of conditional draft
//     probabilities along the root path — the approximation of f(v) from
//     Eq. (7).
//   - acc(T) = 1 + number of accepted draft tokens = tokens committed by one
//     verification pass, so E[acc(T)] = Σ_{v∈T} f(v) (Theorem 3.1).
package toktree

import (
	"fmt"

	"adaserve/internal/lm"
)

// Node is one token in a candidate tree. Its ID is its index in Tree.Nodes;
// the root is always ID 0.
type Node struct {
	// token is the draft token at this node (for the root: the request's
	// last committed token, informational only).
	token lm.Token
	// parent is the parent node ID, or -1 for the root.
	parent int
	// depth is 0 for the root.
	depth int
	// draftProb is q(token | path to parent), 1 for the root.
	draftProb float64
	// PathProb is the product of draftProb along the root path (the
	// approximated f(v)); 1 for the root.
	PathProb float64
	// Children lists child node IDs in descending draftProb order.
	Children []int
}

// Tree is a candidate token tree for one request, as produced by the
// speculation phase. Selection marks a subset of its nodes; the marked
// subset is the draft token tree T submitted for verification.
type Tree struct {
	Nodes []Node
	// ctx is the request's decoding context at the root (history includes
	// the root token).
	ctx lm.Context
}

// NewTree creates a tree holding only a root for the given context. rootTok
// should be the last committed token of the request.
func NewTree(ctx lm.Context, rootTok lm.Token) *Tree {
	return &Tree{
		Nodes: []Node{{token: rootTok, parent: -1, depth: 0, draftProb: 1, PathProb: 1}},
		ctx:   ctx,
	}
}

// reset re-roots the tree in place for reuse: node storage is retained, so
// a warm tree builds without allocating (Search shares its Children slices
// with the beam shape). Any outstanding references into the old tree
// (Selections, node pointers) become invalid.
func (t *Tree) reset(ctx lm.Context, rootTok lm.Token) {
	t.Nodes = t.Nodes[:0]
	t.Nodes = append(t.Nodes, Node{token: rootTok, parent: -1, depth: 0, draftProb: 1, PathProb: 1})
	t.ctx = ctx
}

// AddChild appends a node under parent and returns its ID. Children are kept
// sorted by descending draftProb (ties by token) so verification considers
// likelier branches first.
func (t *Tree) AddChild(parent int, tok lm.Token, draftProb float64) int {
	if parent < 0 || parent >= len(t.Nodes) {
		panic(fmt.Sprintf("toktree: AddChild parent %d out of range", parent))
	}
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		token: tok, parent: parent, depth: t.Nodes[parent].depth + 1,
		draftProb: draftProb, PathProb: t.Nodes[parent].PathProb * draftProb,
	})
	// Take the parent pointer only after append: append may reallocate
	// t.Nodes, and a pointer captured earlier would mutate the stale array.
	p := &t.Nodes[parent]
	p.Children = append(p.Children, id)
	// The existing children are already sorted (Search's come from the beam
	// shape in rank order), so one insertion pass from the tail replaces a
	// full sort.
	ch := p.Children
	for k := len(ch) - 1; k > 0; k-- {
		prev, cur := &t.Nodes[ch[k-1]], &t.Nodes[ch[k]]
		if cur.draftProb > prev.draftProb ||
			(cur.draftProb == prev.draftProb && cur.token < prev.token) {
			ch[k-1], ch[k] = ch[k], ch[k-1]
			continue
		}
		break
	}
	return id
}

// Size returns the number of nodes including the root.
func (t *Tree) Size() int { return len(t.Nodes) }

// Selection marks which nodes of a candidate tree form the draft token tree
// submitted for verification. The root is always selected.
type Selection struct {
	tree *Tree
	// mask[i] reports whether node i is selected.
	mask []bool
	// count is the number of selected nodes (>= 1 for the root).
	count int
	// sumPathProb is Σ f(v) over selected nodes (== E[acc(T)]).
	sumPathProb float64
}

// NewSelection creates a selection over t containing only the root.
func NewSelection(t *Tree) *Selection {
	s := &Selection{}
	s.Reset(t)
	return s
}

// Reset re-targets the selection at tree t with only the root selected,
// reusing the mask's capacity so pooled selections stop allocating once
// warm.
func (s *Selection) Reset(t *Tree) {
	s.tree = t
	if cap(s.mask) < len(t.Nodes) {
		s.mask = make([]bool, len(t.Nodes))
	} else {
		s.mask = s.mask[:len(t.Nodes)]
		for i := range s.mask {
			s.mask[i] = false
		}
	}
	s.mask[0] = true
	s.count = 1
	s.sumPathProb = 1
}

// Add marks node id as selected. It panics if the node's parent is not
// already selected (selections must be connected subtrees) or if the node is
// already selected.
func (s *Selection) Add(id int) {
	if id <= 0 || id >= len(s.mask) {
		panic(fmt.Sprintf("toktree: Selection.Add id %d out of range", id))
	}
	if s.mask[id] {
		panic(fmt.Sprintf("toktree: node %d already selected", id))
	}
	if !s.mask[s.tree.Nodes[id].parent] {
		panic(fmt.Sprintf("toktree: node %d selected before parent %d", id, s.tree.Nodes[id].parent))
	}
	s.mask[id] = true
	s.count++
	s.sumPathProb += s.tree.Nodes[id].PathProb
}

// has reports whether node id is selected.
func (s *Selection) has(id int) bool { return id >= 0 && id < len(s.mask) && s.mask[id] }

// Size returns the number of selected nodes including the root.
func (s *Selection) Size() int { return s.count }

// Validate checks the connectivity invariant (Appendix B): every selected
// node's parent is selected. Kept as an invariant check for the toktree and
// core tests; no binary links it.
func (s *Selection) Validate() error {
	if !s.mask[0] {
		return fmt.Errorf("toktree: root not selected")
	}
	n, sum := 0, 0.0
	for i, sel := range s.mask {
		if !sel {
			continue
		}
		n++
		sum += s.tree.Nodes[i].PathProb
		if i != 0 && !s.mask[s.tree.Nodes[i].parent] {
			return fmt.Errorf("toktree: selected node %d has unselected parent", i)
		}
	}
	if n != s.count {
		return fmt.Errorf("toktree: count %d != recount %d", s.count, n)
	}
	if diff := sum - s.sumPathProb; diff > 1e-9 || diff < -1e-9 {
		return fmt.Errorf("toktree: sumPathProb %g != recount %g", s.sumPathProb, sum)
	}
	return nil
}
