// Package toktree implements draft token trees: the beam-search candidate
// trees produced during AdaServe's speculation phase, the selected draft
// trees submitted for verification, and tree-based parallel verification.
//
// Conventions (following the paper, §3):
//
//   - Every tree is rooted at the request's decoding context. The root has
//     path probability f(root) = 1: verification always commits at least
//     one new token (the bonus/correction token), so the root counts toward
//     acc(T) and toward the token budget.
//   - A node's path probability is the product of conditional draft
//     probabilities along the root path — the approximation of f(v) from
//     Eq. (7).
//   - acc(T) = 1 + number of accepted draft tokens = tokens committed by one
//     verification pass, so E[acc(T)] = Σ_{v∈T} f(v) (Theorem 3.1).
//
// Every tree is a rank tree: each non-root node is its parent's rank-j
// draft candidate, and a parent's children hold ranks 0, 1, … in ID order.
// The draft's probability at a rank does not depend on the context
// (lm.DraftLM.RankProbs), so a tree's structure, probabilities and greedy
// order follow from its (parent, rank) pairs alone. Search builds the
// (d, w) beam's pairs once per shape and every searched tree shares that
// shape's nodes and order; NewRankTree takes any other set, such as the
// interleaved Algorithm 1 ablation's selection. No tree stores a token:
// verification reads a walked node's children's tokens from one draft Dist
// at the walk's context, because it reads one root path and nothing else
// reads tokens.
//
// Every tree keeps its nodes in greedy order: by path probability
// descending, ties by ID ascending. A child's path probability never
// exceeds its parent's and a child's ID is larger, so the order is
// topological, and it is exactly the order in which a frontier max-heap
// pops the tree's nodes. Algorithm 2 therefore only ever selects a prefix
// of it, and a Selection is that prefix's length.
package toktree

import (
	"cmp"
	"fmt"
	"slices"

	"adaserve/internal/lm"
)

// Node is one token in a candidate tree. Its ID is its index in Tree.Nodes;
// the root is always ID 0.
type Node struct {
	// PathProb is the product of the draft's rank probabilities
	// q(token | path to parent) along the root path (the approximated
	// f(v)); 1 for the root.
	PathProb float64
	// rank is the node's position in its tree's greedy order.
	rank int
	// Children lists child node IDs in rank order, which is descending
	// draft probability order: child j is the draft's rank-j candidate.
	Children []int
}

// rootNodes and rootOrder are the shape of every root-only tree.
var (
	rootNodes = []Node{{PathProb: 1}}
	rootOrder = []int{0}
)

// Tree is a candidate token tree for one request, as produced by the
// speculation phase: a shape (nodes and greedy order) at the request's
// context. A Selection takes a prefix of its greedy order; that prefix is
// the draft token tree T submitted for verification.
type Tree struct {
	// Nodes are the tree's nodes in ID order. A root-only or searched tree
	// shares them with every tree of its shape, so they are read-only.
	Nodes []Node
	// order lists the node IDs in greedy order (path prob descending, ID
	// ascending), shared like Nodes.
	order []int
	// ctx is the request's decoding context at the root.
	ctx lm.Context
	// draft names the tree's tokens: child j of a node is the draft's
	// rank-j candidate at the node's context. A root-only tree may have
	// none.
	draft *lm.DraftLM
}

// Root returns the root-only tree at ctx: a request with nothing
// speculated, or one that Search has yet to grow.
func Root(ctx lm.Context) Tree {
	return Tree{Nodes: rootNodes, order: rootOrder, ctx: ctx}
}

// RankNode is one non-root node of a rank tree: its parent's ID and its
// draft rank among the parent's children.
type RankNode struct{ Parent, Rank int }

// NewRankTree builds the rank tree over draft at context ctx whose node
// i+1 is spec[i]: the draft's rank-spec[i].Rank candidate under node
// spec[i].Parent. Every parent must precede its children, and each
// parent's children must take ranks 0, 1, … in ID order (it panics
// otherwise). Verification reads the tokens, as in a searched tree.
func NewRankTree(ctx lm.Context, draft *lm.DraftLM, spec []RankNode) *Tree {
	sh := rankShape(draft.RankProbs(), spec)
	return &Tree{Nodes: sh.nodes, order: sh.order, ctx: ctx, draft: draft}
}

// rankShape returns the nodes and greedy order of the rank tree spec (see
// NewRankTree) over rank probabilities probs: each node's PathProb
// (parent × probs[rank]) and greedy rank, and each parent's Children in
// rank order.
func rankShape(probs []float64, spec []RankNode) shape {
	nodes := make([]Node, 1+len(spec))
	nodes[0] = Node{PathProb: 1}
	kids := make([]int, len(nodes))
	for i, s := range spec {
		id := i + 1
		if s.Parent < 0 || s.Parent >= id || s.Rank != kids[s.Parent] || s.Rank >= len(probs) {
			panic(fmt.Sprintf("toktree: node %d as rank %d under node %d is not its parent's next draft rank", id, s.Rank, s.Parent))
		}
		kids[s.Parent]++
		nodes[id] = Node{PathProb: nodes[s.Parent].PathProb * probs[s.Rank]}
	}
	all := make([]int, len(spec))
	off := 0
	for p, n := range kids {
		if n > 0 {
			nodes[p].Children = all[off : off+n]
			off += n
		}
	}
	for i, s := range spec {
		nodes[s.Parent].Children[s.Rank] = i + 1
	}
	order := make([]int, len(nodes))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if pa, pb := nodes[a].PathProb, nodes[b].PathProb; pa != pb {
			return cmp.Compare(pb, pa)
		}
		return cmp.Compare(a, b)
	})
	for r, id := range order {
		nodes[id].rank = r
	}
	return shape{nodes: nodes, order: order}
}

// Size returns the number of nodes including the root.
func (t *Tree) Size() int { return len(t.Nodes) }

// Order returns the node IDs in greedy order: path probability descending,
// ties by ID ascending. Every prefix of it is a connected subtree holding
// the root. The slice is shared with every tree of the same shape; callers
// must not modify it.
func (t *Tree) Order() []int { return t.order }

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
