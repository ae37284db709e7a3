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
//
// Every tree keeps its nodes in greedy order: by path probability
// descending, ties by ID ascending. A child's path probability never
// exceeds its parent's and a child's ID is larger, so the order is
// topological, and it is exactly the order in which a frontier max-heap
// pops the tree's nodes. Algorithm 2 therefore only ever selects a prefix
// of it, and a Selection is that prefix's length.
//
// A searched tree is its (d, w) beam shape plus the request's context: the
// structure, probabilities and greedy order come from the shape, and a
// node's token is written only when verification walks to its parent (one
// draft Dist at the walk's context), because verification reads one root
// path and nothing else reads tokens.
package toktree

import (
	"fmt"

	"adaserve/internal/lm"
)

// Node is one token in a candidate tree. Its ID is its index in Tree.Nodes;
// the root is always ID 0.
type Node struct {
	// token is the draft token at this node (for the root: the request's
	// last committed token, informational only). In a searched tree it is
	// set when verification reaches the parent (see Tree.fill).
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
	// rank is the node's position in its tree's greedy order.
	rank int
	// Children lists child node IDs in descending draftProb order. In a
	// searched tree, child j is the draft's rank-j candidate.
	Children []int
}

// rootOrder is the greedy order of every root-only tree. Its capacity is
// its length, so AddChild's append copies it instead of writing into it.
var rootOrder = []int{0}

// Tree is a candidate token tree for one request, as produced by the
// speculation phase. A Selection takes a prefix of its greedy order; that
// prefix is the draft token tree T submitted for verification.
type Tree struct {
	Nodes []Node
	// order lists the node IDs in greedy order (path prob descending, ID
	// ascending). A searched tree shares it with its beam shape, so it is
	// read-only there; it is copied before AddChild writes into it.
	order []int
	// ctx is the request's decoding context at the root (history includes
	// the root token).
	ctx lm.Context
	// draft fills a searched tree's tokens on demand; nil when every token
	// is set.
	draft *lm.DraftLM
}

// NewTree creates a tree holding only a root for the given context. rootTok
// should be the last committed token of the request.
func NewTree(ctx lm.Context, rootTok lm.Token) *Tree {
	t := &Tree{}
	t.reset(ctx, rootTok)
	return t
}

// reset re-roots the tree in place for reuse: node storage is retained, so
// a warm tree builds without allocating (Search shares its Children slices
// and greedy order with the beam shape). Any outstanding references into
// the old tree (Selections, node pointers) become invalid.
func (t *Tree) reset(ctx lm.Context, rootTok lm.Token) {
	t.Nodes = t.Nodes[:0]
	t.Nodes = append(t.Nodes, Node{token: rootTok, parent: -1, depth: 0, draftProb: 1, PathProb: 1})
	t.order = rootOrder
	t.ctx = ctx
	t.draft = nil
}

// AddChild appends a node under parent and returns its ID. Children are kept
// sorted by descending draftProb (ties by token) so verification considers
// likelier branches first, and the node takes its place in the greedy
// order. draftProb must not exceed 1, which keeps that order topological.
// It panics on a searched tree whose tokens are still pending: a new child
// can shift its siblings off the positions that name their draft ranks.
func (t *Tree) AddChild(parent int, tok lm.Token, draftProb float64) int {
	if parent < 0 || parent >= len(t.Nodes) {
		panic(fmt.Sprintf("toktree: AddChild parent %d out of range", parent))
	}
	if draftProb > 1 {
		panic(fmt.Sprintf("toktree: AddChild draft prob %g above 1", draftProb))
	}
	if t.draft != nil {
		panic("toktree: AddChild on a searched tree with pending tokens")
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
	// The new node has the largest ID, so it goes behind every node of at
	// least its path probability; the nodes it passes move back one rank.
	pp := t.Nodes[id].PathProb
	pos := len(t.order)
	for pos > 0 && t.Nodes[t.order[pos-1]].PathProb < pp {
		pos--
	}
	t.order = append(t.order, id)
	copy(t.order[pos+1:], t.order[pos:])
	t.order[pos] = id
	for r := pos; r < len(t.order); r++ {
		t.Nodes[t.order[r]].rank = r
	}
	return id
}

// Size returns the number of nodes including the root.
func (t *Tree) Size() int { return len(t.Nodes) }

// Order returns the node IDs in greedy order: path probability descending,
// ties by ID ascending. Every prefix of it is a connected subtree holding
// the root. The slice may be shared with the tree's beam shape; callers
// must not modify it.
func (t *Tree) Order() []int { return t.order }

// fill writes the tokens of node p's first n children from one draft Dist
// at p's context ctx. In a searched tree child j is the draft's rank-j
// candidate, and a selected node's selected children are always its first
// ones: siblings' path probabilities fall with their rank (the draft's rank
// weights are strictly decreasing) while their IDs rise.
func (t *Tree) fill(p int, ctx lm.Context, n int) {
	dist := t.draft.Dist(ctx)
	for j, c := range t.Nodes[p].Children[:n] {
		t.Nodes[c].token = dist.Token(j)
	}
}

// Selection is the draft token tree submitted for verification: the first
// n nodes of its candidate tree's greedy order. Any such prefix holds the
// root and is connected (Appendix B), so a Selection is valid by
// construction. It is a value; it stays valid while its tree does.
type Selection struct {
	tree *Tree
	n    int
}

// Prefix returns the selection of t's first n nodes in greedy order. It
// panics unless 1 <= n <= t.Size().
func Prefix(t *Tree, n int) Selection {
	if n < 1 || n > len(t.order) {
		panic(fmt.Sprintf("toktree: prefix of %d nodes of a %d-node tree", n, len(t.order)))
	}
	return Selection{tree: t, n: n}
}

// has reports whether node id is selected.
func (s Selection) has(id int) bool { return s.tree.Nodes[id].rank < s.n }

// Size returns the number of selected nodes including the root.
func (s Selection) Size() int { return s.n }
