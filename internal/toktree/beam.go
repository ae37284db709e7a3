package toktree

import (
	"cmp"
	"fmt"
	"slices"

	"adaserve/internal/lm"
)

// shapeCand is one candidate child while a shape is computed.
type shapeCand struct {
	parent, rank int
	path         float64
}

// shape is the token-free skeleton of a rank tree (see rankShape), such as
// every depth-d, width-w beam over one draft (see buildShape).
type shape struct {
	// nodes are the prototype nodes in tree-ID order.
	nodes []Node
	// order is the nodes' greedy order.
	order []int
}

// BeamBuilder runs beam searches with reusable scratch, so repeated
// searches — one per request per iteration — allocate nothing once warm.
// It computes the shape of each (d, w) on that pair's first Search and
// keeps it. The zero value is ready to use. Not safe for concurrent use;
// engines own one each.
type BeamBuilder struct {
	// probs are the rank probabilities the shapes were computed from.
	probs []float64
	// shapes[d][w] is the depth-d, width-w beam's shape, with nil nodes
	// until that pair's first Search.
	shapes [][]shape
}

// Search grows a candidate token tree of depth d and beam width w into t,
// which must contain only a root (fresh from TreePool.Get or reset):
// Algorithm 2's speculation phase for one request. Step 1 expands the root
// and keeps the w highest-probability children. Each subsequent step
// expands all beam nodes and keeps the w children with the highest *path*
// probability (global per request, as in Eagle-2-style beam search), so
// every non-root level holds at most w nodes. Width 1 is the greedy chain
// the vLLM-Spec baselines speculate.
//
// The tree's structure, probabilities and greedy order come from the
// (d, w) shape, which the tree shares (its Children slices and order are
// read-only); only the tokens depend on the request. Search records the
// draft and calls no Dist: verification fills a node's children's tokens
// from one draft Dist when its walk reaches the node. Every draft proposes
// at least one candidate, so a search with d > 0 runs all d draft steps.
func (bb *BeamBuilder) Search(t *Tree, draft *lm.DraftLM, d, w int) error {
	if d < 0 {
		return fmt.Errorf("toktree: negative beam depth %d", d)
	}
	if w < 1 && d > 0 {
		return fmt.Errorf("toktree: beam width %d < 1", w)
	}
	if d == 0 {
		return nil
	}
	sh := bb.shape(draft.RankProbs(), d, w)
	t.Nodes = append(t.Nodes[:1], sh.nodes[1:]...)
	t.Nodes[0].Children = sh.nodes[0].Children
	t.order = sh.order
	t.draft = draft
	return nil
}

// shape returns the depth-d, width-w beam's shape over rank probabilities
// probs, computing it on first use.
func (bb *BeamBuilder) shape(probs []float64, d, w int) *shape {
	if len(bb.probs) != len(probs) || &bb.probs[0] != &probs[0] {
		bb.probs, bb.shapes = probs, nil
	}
	for len(bb.shapes) <= d {
		bb.shapes = append(bb.shapes, nil)
	}
	for len(bb.shapes[d]) <= w {
		bb.shapes[d] = append(bb.shapes[d], shape{})
	}
	sh := &bb.shapes[d][w]
	if sh.nodes == nil {
		*sh = buildShape(probs, d, w)
	}
	return sh
}

// buildShape returns the skeleton of every depth-d, width-w beam over one
// draft: the rank tree of the beam's (parent, rank) pairs (see rankShape).
// It is context-free: a draft Dist has the same probability at each rank in
// every context, and those rank probabilities are strictly decreasing, so
// the beam's ranking by (path prob, parent ID, token) never reaches the
// token. A parent's children are therefore always its ranks 0..k-1, in ID
// order.
//
// It runs the beam search over rank probabilities alone. Each step
// ranks the beam nodes' top-w ranks by (path prob desc, parent ID asc, rank
// asc) — within one parent a lower rank has the higher probability, which
// is how the token-keyed ranking orders them too — and keeps the first w.
func buildShape(probs []float64, d, w int) shape {
	k := min(w, len(probs))
	spec := make([]RankNode, 0, d*w)
	path := append(make([]float64, 0, 1+d*w), 1) // PathProb by node ID
	beam := append(make([]int, 0, w), 0)
	cands := make([]shapeCand, 0, w*k)
	for step := 1; step <= d; step++ {
		cands = cands[:0]
		for _, p := range beam {
			for r := 0; r < k; r++ {
				cands = append(cands, shapeCand{parent: p, rank: r, path: path[p] * probs[r]})
			}
		}
		slices.SortFunc(cands, func(a, b shapeCand) int {
			if a.path != b.path {
				return cmp.Compare(b.path, a.path)
			}
			if a.parent != b.parent {
				return cmp.Compare(a.parent, b.parent)
			}
			return cmp.Compare(a.rank, b.rank)
		})
		beam = beam[:0]
		for _, c := range cands[:min(w, len(cands))] {
			spec = append(spec, RankNode{Parent: c.parent, Rank: c.rank})
			beam = append(beam, len(path))
			path = append(path, c.path)
		}
	}
	return rankShape(probs, spec)
}
