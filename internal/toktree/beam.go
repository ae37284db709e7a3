package toktree

import (
	"fmt"
	"sort"

	"adaserve/internal/lm"
)

// beamEntry is one live beam node: its tree ID plus the decoding context
// under which its children are proposed. lm.Context is a value type, so the
// beam carries no heap references.
type beamEntry struct {
	nodeID int
	ctx    lm.Context
}

// beamCand is one candidate child during a beam step.
type beamCand struct {
	parentID  int
	parentCtx lm.Context
	tok       lm.Token
	draftProb float64
	pathProb  float64
}

// BeamBuilder runs beam searches with reusable scratch (beam and candidate
// buffers), so repeated searches — one per request per iteration — allocate
// nothing once warm. The zero value is ready to use. Not safe for concurrent
// use; engines own one each.
type BeamBuilder struct {
	beam  []beamEntry
	next  []beamEntry
	cands []beamCand
}

// BeamBuilder implements sort.Interface over its candidate buffer so the
// per-step ranking runs through sort.Sort without the reflection closures
// (and their allocations) of sort.Slice. The (parentID, tok) pair is unique,
// so the ordering is total and algorithm-independent.

// Len implements sort.Interface.
func (bb *BeamBuilder) Len() int { return len(bb.cands) }

// Less implements sort.Interface: descending path probability, ties by
// (parent node ID, token) ascending.
func (bb *BeamBuilder) Less(i, j int) bool {
	a, b := &bb.cands[i], &bb.cands[j]
	if a.pathProb != b.pathProb {
		return a.pathProb > b.pathProb
	}
	if a.parentID != b.parentID {
		return a.parentID < b.parentID
	}
	return a.tok < b.tok
}

// Swap implements sort.Interface.
func (bb *BeamBuilder) Swap(i, j int) { bb.cands[i], bb.cands[j] = bb.cands[j], bb.cands[i] }

// Search grows a candidate token tree of depth d and beam width w into t,
// which must contain only a root (fresh from NewTree, TreePool.Get, or
// Reset): Algorithm 2's speculation phase for one request. Step 1 expands
// the root and keeps the w highest-draftProb children. Each subsequent step
// expands all beam nodes and keeps the w children with the highest *path*
// probability (global per request, as in Eagle-2-style beam search), so
// every non-root level holds at most w nodes. Width 1 is the greedy chain
// the vLLM-Spec baselines speculate.
//
// It returns the number of draft steps executed (fewer than d if the beam
// empties).
func (bb *BeamBuilder) Search(t *Tree, draft lm.Model, d, w int) (steps int, err error) {
	if d < 0 {
		return 0, fmt.Errorf("toktree: negative beam depth %d", d)
	}
	if w < 1 && d > 0 {
		return 0, fmt.Errorf("toktree: beam width %d < 1", w)
	}
	if d == 0 {
		return 0, nil
	}

	bb.beam = append(bb.beam[:0], beamEntry{nodeID: 0, ctx: t.ctx})

	for step := 0; step < d; step++ {
		bb.cands = bb.cands[:0]
		for _, be := range bb.beam {
			dist := draft.Dist(be.ctx)
			parentPath := t.Nodes[be.nodeID].PathProb
			top := dist.Entries
			if len(top) > w {
				top = top[:w]
			}
			for _, e := range top {
				bb.cands = append(bb.cands, beamCand{
					parentID: be.nodeID, parentCtx: be.ctx, tok: e.Token,
					draftProb: e.Prob, pathProb: parentPath * e.Prob,
				})
			}
		}
		if len(bb.cands) == 0 {
			break
		}
		sort.Sort(bb)
		cands := bb.cands
		if len(cands) > w {
			cands = cands[:w]
		}
		bb.next = bb.next[:0]
		for _, c := range cands {
			id := t.AddChild(c.parentID, c.tok, c.draftProb)
			bb.next = append(bb.next, beamEntry{nodeID: id, ctx: c.parentCtx.Extend(c.tok)})
		}
		bb.beam, bb.next = bb.next, bb.beam
		steps++
	}
	return steps, nil
}
