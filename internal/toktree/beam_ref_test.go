package toktree

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// refCand is one candidate child during a reference beam step.
type refCand struct {
	parentID  int
	parentCtx lm.Context
	tok       lm.Token
	draftProb float64
	pathProb  float64
}

// refBeam is the sort-based beam search that Search replaced: every step
// asks the draft for each beam node's top-w candidates, ranks all of them
// by (path prob desc, parent ID asc, token asc) with sort.Sort and keeps
// the first w, adding them through addChild.
type refBeam struct{ cands []refCand }

func (rb *refBeam) Len() int { return len(rb.cands) }

func (rb *refBeam) Less(i, j int) bool {
	a, b := &rb.cands[i], &rb.cands[j]
	if a.pathProb != b.pathProb {
		return a.pathProb > b.pathProb
	}
	if a.parentID != b.parentID {
		return a.parentID < b.parentID
	}
	return a.tok < b.tok
}

func (rb *refBeam) Swap(i, j int) { rb.cands[i], rb.cands[j] = rb.cands[j], rb.cands[i] }

// addChild is the explicit-token tree builder that rank trees replaced,
// kept for the references: it appends a node holding token tok under
// parent and returns its ID. Children stay sorted by descending draft
// probability (ties by token) — among siblings, by descending PathProb —
// and the node takes its place in the greedy order.
func addChild(t *Tree, parent int, tok lm.Token, draftProb float64) int {
	id := len(t.Nodes)
	t.Nodes = append(t.Nodes, Node{
		token: tok, depth: t.Nodes[parent].depth + 1,
		PathProb: t.Nodes[parent].PathProb * draftProb,
	})
	p := &t.Nodes[parent]
	p.Children = append(p.Children, id)
	ch := p.Children
	for k := len(ch) - 1; k > 0; k-- {
		prev, cur := &t.Nodes[ch[k-1]], &t.Nodes[ch[k]]
		if cur.PathProb > prev.PathProb ||
			(cur.PathProb == prev.PathProb && cur.token < prev.token) {
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
	t.order = append(t.order[:len(t.order):len(t.order)], id)
	copy(t.order[pos+1:], t.order[pos:])
	t.order[pos] = id
	for r := pos; r < len(t.order); r++ {
		t.Nodes[t.order[r]].rank = r
	}
	return id
}

// refSearch is the reference Search over a fresh tree.
func refSearch(t *Tree, draft *lm.DraftLM, d, w int) int {
	type entry struct {
		nodeID int
		ctx    lm.Context
	}
	rb := &refBeam{}
	beam := []entry{{nodeID: 0, ctx: t.ctx}}
	steps := 0
	for step := 0; step < d; step++ {
		rb.cands = rb.cands[:0]
		for _, be := range beam {
			dist := draft.Dist(be.ctx)
			probs := draft.RankProbs()
			parentPath := t.Nodes[be.nodeID].PathProb
			for r := range min(w, len(probs)) {
				rb.cands = append(rb.cands, refCand{
					parentID: be.nodeID, parentCtx: be.ctx, tok: dist.Token(r),
					draftProb: probs[r], pathProb: parentPath * probs[r],
				})
			}
		}
		if len(rb.cands) == 0 {
			break
		}
		sort.Sort(rb)
		cands := rb.cands[:min(w, len(rb.cands))]
		beam = beam[:0]
		for _, c := range cands {
			id := addChild(t, c.parentID, c.tok, c.draftProb)
			beam = append(beam, entry{nodeID: id, ctx: c.parentCtx.Extend(c.tok)})
		}
		steps++
	}
	return steps
}

// diffTrees describes the first difference between got and the reference
// want — node count, greedy order, or a node's ID, depth, token, PathProb
// (bitwise), rank or Children order — or returns "".
func diffTrees(got, want *Tree) string {
	if len(got.Nodes) != len(want.Nodes) {
		return fmt.Sprintf("%d nodes, reference %d", len(got.Nodes), len(want.Nodes))
	}
	if !slices.Equal(got.order, want.order) {
		return fmt.Sprintf("greedy order %v, reference %v", got.order, want.order)
	}
	for i := range want.Nodes {
		g, w := &got.Nodes[i], &want.Nodes[i]
		same := g.depth == w.depth && g.token == w.token && g.rank == w.rank &&
			math.Float64bits(g.PathProb) == math.Float64bits(w.PathProb) &&
			slices.Equal(g.Children, w.Children)
		if !same {
			return fmt.Sprintf("node %d is %+v, reference %+v", i, *g, *w)
		}
	}
	return ""
}

// TestSearchMatchesSortedReference pins the shape-based Search to the sort
// it replaced, node for node, for both model setups and every d in [1, 8]
// and w in [1, 4], on the engine's path: one reused builder (so each
// (d, w) shape is computed once and then reused) and pooled trees.
func TestSearchMatchesSortedReference(t *testing.T) {
	for _, s := range []struct {
		name             string
		sharpness, alpha float64
	}{{"llama", 3.2, 0.88}, {"qwen", 3.0, 0.84}} {
		t.Run(s.name, func(t *testing.T) {
			target := lm.MustSyntheticLM(21, 4096, 16, s.sharpness, 0.02)
			draft := lm.MustDraftLM(target, s.alpha, 22)
			var bb BeamBuilder
			var pool TreePool
			rng := mathutil.NewRNG(5)
			for i := 0; i < 40; i++ {
				ctx := lm.Context{ReqSeed: uint64(i)}.Extend(lm.Token(rng.Intn(4096)))
				for d := 1; d <= 8; d++ {
					for w := 1; w <= 4; w++ {
						checkSearch(t, &bb, &pool, draft, ctx, d, w)
					}
				}
			}
		})
	}
}

// checkSearch compares one pooled Search with the reference. The searched
// tree's tokens come from materialize, the on-demand fill verification
// uses, applied at every node.
func checkSearch(t testing.TB, bb *BeamBuilder, pool *TreePool, draft *lm.DraftLM, ctx lm.Context, d, w int) {
	t.Helper()
	want := newTree(ctx)
	// The engine charges every search d draft steps.
	if steps := refSearch(want, draft, d, w); steps != d {
		t.Fatalf("ctx %+v d=%d w=%d: reference ran %d steps", ctx, d, w, steps)
	}
	got := pool.Get(ctx)
	defer pool.Put(got)
	if err := bb.Search(got, draft, d, w); err != nil {
		t.Fatal(err)
	}
	if err := got.validate(); err != nil {
		t.Fatalf("ctx %+v d=%d w=%d: %v", ctx, d, w, err)
	}
	got.materialize()
	if diff := diffTrees(got, want); diff != "" {
		t.Fatalf("ctx %+v d=%d w=%d: %s", ctx, d, w, diff)
	}
}

// FuzzBeamShape checks Search against the sorted reference over model
// seeds, depths, widths (wider than the candidate set too), draft
// alignments and Zipf sharpness > 0.
func FuzzBeamShape(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(4), uint8(88), uint16(320))
	f.Add(uint64(2), uint8(8), uint8(1), uint8(0), uint16(300))
	f.Add(uint64(3), uint8(3), uint8(7), uint8(50), uint16(5))
	f.Add(uint64(4), uint8(1), uint8(2), uint8(100), uint16(499))
	f.Fuzz(func(t *testing.T, seed uint64, dRaw, wRaw, alphaRaw uint8, sharpRaw uint16) {
		d := 1 + int(dRaw%8)
		w := 1 + int(wRaw%6)
		alpha := float64(alphaRaw%101) / 100
		sharpness := 0.05 + float64(sharpRaw%500)/100
		branch := 1 + int(seed%16)
		target := lm.MustSyntheticLM(seed, 512, branch, sharpness, 0.05)
		draft := lm.MustDraftLM(target, alpha, seed^0x5eed)
		var bb BeamBuilder
		var pool TreePool
		for i := uint64(0); i < 4; i++ {
			checkSearch(t, &bb, &pool, draft, lm.Context{ReqSeed: seed + i}.Extend(lm.Token(i)), d, w)
		}
	})
}
