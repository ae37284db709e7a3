// Package core implements the paper's primary contribution:
//
//   - Algorithm 1: optimal token-tree construction under known path
//     probabilities (with the optimality and connectivity properties of
//     Appendices B and C);
//   - Algorithm 2: SLO-customized speculative decoding's two selection
//     phases (SLO-customized selection and throughput-optimized selection)
//     over beam-search candidate trees, as prefix lengths of each tree's
//     greedy node order (toktree.Tree.Order), which is the order a
//     frontier heap would pop the nodes;
//   - the adaptive (d, w) controller of Eq. 8–9.
//
// Everything here is pure CPU planning code — the paper measures it as the
// "scheduling" slice of Figure 15 — and is deterministic: all ties are
// broken by (request index, node ID).
package core

// frontierItem is a candidate node eligible for selection: its parent is
// already selected, it is not.
type frontierItem struct {
	req      int     // request index
	node     int     // node ID within the request's candidate tree
	pathProb float64 // approximated f(v)
}

// frontierHeap is a max-heap on pathProb with deterministic tie-breaking.
// Algorithm 1 keeps every frontier node in it; Algorithm 2's throughput
// phase keeps only each request's next node in greedy order.
// The sift operations are hand-rolled (not container/heap) so pushing and
// popping never box items through interfaces — the selection phases run
// allocation-free once the backing arrays are warm. The (req, node) pair is
// unique per item, so the comparator is a total order and the pop sequence
// does not depend on sift internals.
type frontierHeap []frontierItem

func (h frontierHeap) Len() int { return len(h) }

func (h frontierHeap) Less(i, j int) bool {
	if h[i].pathProb != h[j].pathProb {
		return h[i].pathProb > h[j].pathProb
	}
	if h[i].req != h[j].req {
		return h[i].req < h[j].req
	}
	return h[i].node < h[j].node
}

func (h frontierHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// pushItem appends it and restores the heap property.
func pushItem(h *frontierHeap, it frontierItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s.Less(i, p) {
			break
		}
		s.Swap(i, p)
		i = p
	}
}

// popItem removes and returns the top item.
func popItem(h *frontierHeap) frontierItem {
	s := *h
	n := len(s) - 1
	s.Swap(0, n)
	it := s[n]
	*h = s[:n]
	siftDown(*h, 0)
	return it
}

// initHeap establishes the heap property over arbitrary contents.
func initHeap(h frontierHeap) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
}

// siftDown restores the heap property below index i.
func siftDown(s frontierHeap, i int) {
	n := len(s)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		j := l
		if r := l + 1; r < n && s.Less(r, l) {
			j = r
		}
		if !s.Less(j, i) {
			return
		}
		s.Swap(i, j)
		i = j
	}
}
