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
	Selections []toktree.Selection
	// expectedAccept[i] is Σ f(v) over request i's selection.
	expectedAccept []float64
	// BudgetUsed counts nodes selected in total (incl. roots).
	BudgetUsed int
}

// Selector runs Algorithm 2's selection phases with pooled scratch: the
// ordering and size slices, the head heap and the result storage are all
// reused across calls, so a warm Selector allocates nothing. The zero value
// is ready to use. The returned SelectResult stays valid only until the
// next Select call on the same Selector — the per-iteration lifetime
// schedulers already observe. Not safe for concurrent use; schedulers own
// one each.
type Selector struct {
	order []int
	// sizes[i] is request i's selected prefix length so far.
	sizes []int
	heads frontierHeap
	res   SelectResult
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
//
// Both phases only ever take nodes in the tree's greedy order (see
// toktree.Tree.Order), which is the order a frontier heap pops them, so
// each request's selection is a prefix of it. The SLO phase walks each
// prefix; the throughput phase merges the requests' next nodes through a
// heap of at most one head per request, with the frontier heap's
// (pathProb, request, node) order.
func (s *Selector) Select(reqs []SelectRequest, cfg SelectConfig) (*SelectResult, error) {
	n := len(reqs)
	if cfg.Budget < n {
		return nil, fmt.Errorf("core: budget %d below one root per request (%d)", cfg.Budget, n)
	}
	if cfg.Depth < 0 {
		return nil, fmt.Errorf("core: negative depth %d", cfg.Depth)
	}
	// Initialization: every request's root is selected and costs budget.
	res := s.reset(n)
	budget := cfg.Budget - n

	// SLO-customized selection, hardest requests first. The sort is a
	// stable insertion sort: identical ordering to sort.SliceStable, no
	// reflection closures on the per-iteration path (batches are small and
	// nearly sorted in practice).
	order := s.order
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
		cand := reqs[i].Cand
		ord := cand.Order()
		cap_ := capThreshold(reqs[i].MinAccept, cfg.Depth)
		k := 1
		for res.expectedAccept[i] < cap_ && k < maxPerReq && budget > 0 && k < len(ord) {
			res.expectedAccept[i] += cand.Nodes[ord[k]].PathProb
			k++
			budget--
		}
		s.sizes[i] = k
	}

	// Throughput-optimized selection: global greedy over every request's
	// next node in greedy order.
	for i, rq := range reqs {
		if ord := rq.Cand.Order(); s.sizes[i] < len(ord) {
			c := ord[s.sizes[i]]
			s.heads = append(s.heads, frontierItem{req: i, node: c, pathProb: rq.Cand.Nodes[c].PathProb})
		}
	}
	initHeap(s.heads)
	for budget > 0 && len(s.heads) > 0 {
		top := &s.heads[0]
		i := top.req
		res.expectedAccept[i] += top.pathProb
		s.sizes[i]++
		budget--
		cand := reqs[i].Cand
		if ord := cand.Order(); s.sizes[i] < len(ord) {
			c := ord[s.sizes[i]]
			*top = frontierItem{req: i, node: c, pathProb: cand.Nodes[c].PathProb}
			siftDown(s.heads, 0)
		} else {
			popItem(&s.heads)
		}
	}

	for i, rq := range reqs {
		res.Selections[i] = toktree.Prefix(rq.Cand, s.sizes[i])
	}
	res.BudgetUsed = cfg.Budget - budget
	return res, nil
}

// reset sizes the pooled storage for n requests and clears it to root-only
// selections.
func (s *Selector) reset(n int) *SelectResult {
	if cap(s.order) < n {
		s.order = make([]int, n)
		s.sizes = make([]int, n)
	}
	s.order, s.sizes = s.order[:n], s.sizes[:n]
	for i := range s.order {
		s.order[i] = i
	}
	s.heads = s.heads[:0]

	res := &s.res
	if cap(res.Selections) < n {
		res.Selections = make([]toktree.Selection, n)
		res.expectedAccept = make([]float64, n)
	}
	res.Selections = res.Selections[:n]
	res.expectedAccept = res.expectedAccept[:n]
	for i := range res.expectedAccept {
		res.expectedAccept[i] = 1
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
