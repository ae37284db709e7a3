package core

import (
	"fmt"
	"math"

	"adaserve/internal/toktree"
)

// SelectRequest is one request's input to Algorithm 2's selection phases.
type SelectRequest struct {
	// Cand is the candidate token tree built by the speculation phase.
	Cand *toktree.Tree
	// MinAccept is A(r): the minimum expected accepted tokens this
	// iteration needs to keep the request on its SLO.
	MinAccept float64
}

// SelectConfig tunes Algorithm 2's selection phases.
type SelectConfig struct {
	// Budget is the total verification token budget B (counts roots).
	Budget int
	// Depth is the speculation depth d; A_cap(r) = min(A(r), d+1) because a
	// depth-d tree can commit at most d+1 tokens.
	Depth int
	// PerRequestMax is n_max: the cap on one request's draft-tree size
	// during SLO-customized selection, preventing a hard request from
	// monopolizing the budget with low-probability nodes. <= 0 means
	// unlimited (ablation).
	PerRequestMax int
}

// SelectResult reports the outcome of the two selection phases.
type SelectResult struct {
	// Selections holds the draft token tree for each request, parallel to
	// the input slice.
	Selections []*toktree.Selection
	// expectedAccept[i] is Σ f(v) over request i's selection.
	expectedAccept []float64
	// BudgetUsed counts nodes selected in total (incl. roots).
	BudgetUsed int
}

// Selector runs Algorithm 2's selection phases with pooled scratch: the
// frontier heaps, ordering slices, selection masks, and the result storage
// are all reused across calls, so a warm Selector allocates nothing. The
// zero value is ready to use. The returned SelectResult (and the Selections
// inside it) stays valid only until the next Select call on the same
// Selector — the per-iteration lifetime schedulers already observe. Not
// safe for concurrent use; schedulers own one each.
type Selector struct {
	frontiers []frontierHeap
	order     []int
	global    frontierHeap
	sels      []*toktree.Selection
	res       SelectResult
}

// Select runs Algorithm 2's SLO-customized selection followed by
// throughput-optimized selection over the candidate trees.
//
// Phase ordering (paper §4.3): requests are processed in descending A(r) so
// that when the budget cannot satisfy everyone, the slowest requests (those
// needing the most progress) are served first. Within a request, nodes are
// taken from the candidate tree in descending approximated-f(v) order, with
// parents always preceding children (connectivity, Appendix B). The
// remaining budget is then spent globally on the highest-f(v) candidates.
func (s *Selector) Select(reqs []SelectRequest, cfg SelectConfig) (*SelectResult, error) {
	n := len(reqs)
	if cfg.Budget < n {
		return nil, fmt.Errorf("core: budget %d below one root per request (%d)", cfg.Budget, n)
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("core: negative depth %d", cfg.Depth)
	}
	res := s.reset(n)
	budget := cfg.Budget

	// Initialization: every request's root is selected and costs budget.
	for i, rq := range reqs {
		res.Selections[i].Reset(rq.Cand)
		res.expectedAccept[i] = 1
		budget--
		for _, c := range rq.Cand.Nodes[0].Children {
			pushItem(&s.frontiers[i], frontierItem{
				req: i, node: c, pathProb: rq.Cand.Nodes[c].PathProb,
			})
		}
	}

	// SLO-customized selection, hardest requests first. The sort is a
	// stable insertion sort: identical ordering to sort.SliceStable, no
	// reflection closures on the per-iteration path (batches are small and
	// nearly sorted in practice).
	order := s.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && reqs[order[j]].MinAccept > reqs[order[j-1]].MinAccept; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	maxPerReq := cfg.PerRequestMax
	if maxPerReq <= 0 {
		maxPerReq = math.MaxInt
	}
	for _, i := range order {
		cap_ := capThreshold(reqs[i].MinAccept, cfg.Depth)
		for res.expectedAccept[i] < cap_ &&
			res.Selections[i].Size() < maxPerReq &&
			budget > 0 && s.frontiers[i].Len() > 0 {
			it := popItem(&s.frontiers[i])
			addNode(res, &s.frontiers[i], reqs[i].Cand, i, it)
			budget--
		}
	}

	// Throughput-optimized selection: global greedy over all frontiers.
	s.global = s.global[:0]
	for i := range s.frontiers {
		s.global = append(s.global, s.frontiers[i]...)
	}
	initHeap(s.global)
	for budget > 0 && s.global.Len() > 0 {
		it := popItem(&s.global)
		addNode(res, &s.global, reqs[it.req].Cand, it.req, it)
		budget--
	}

	res.BudgetUsed = cfg.Budget - budget
	return res, nil
}

// reset sizes the pooled storage for n requests and clears it.
func (s *Selector) reset(n int) *SelectResult {
	if cap(s.frontiers) < n {
		s.frontiers = append(s.frontiers[:cap(s.frontiers)], make([]frontierHeap, n-cap(s.frontiers))...)
	}
	s.frontiers = s.frontiers[:n]
	for i := range s.frontiers {
		s.frontiers[i] = s.frontiers[i][:0]
	}
	if cap(s.order) < n {
		s.order = make([]int, n)
	}
	s.order = s.order[:n]
	for len(s.sels) < n {
		s.sels = append(s.sels, &toktree.Selection{})
	}

	res := &s.res
	if cap(res.Selections) < n {
		res.Selections = make([]*toktree.Selection, n)
		res.expectedAccept = make([]float64, n)
	}
	res.Selections = res.Selections[:n]
	res.expectedAccept = res.expectedAccept[:n]
	for i := 0; i < n; i++ {
		res.Selections[i] = s.sels[i]
		res.expectedAccept[i] = 0
	}
	res.BudgetUsed = 0
	return res
}

// capThreshold is A_cap(r) = min(A(r), d+1): a depth-d candidate tree cannot
// commit more than d+1 tokens, so deficits beyond that are unattainable this
// iteration (the request catches up over subsequent iterations).
func capThreshold(minAccept float64, depth int) float64 {
	limit := float64(depth + 1)
	if minAccept > limit {
		return limit
	}
	return minAccept
}

// addNode selects the node and pushes its children onto the given frontier.
func addNode(res *SelectResult, h *frontierHeap, cand *toktree.Tree, req int, it frontierItem) {
	res.Selections[req].Add(it.node)
	res.expectedAccept[req] += it.pathProb
	for _, c := range cand.Nodes[it.node].Children {
		pushItem(h, frontierItem{req: req, node: c, pathProb: cand.Nodes[c].PathProb})
	}
}
