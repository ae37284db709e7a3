package toktree

import "adaserve/internal/lm"

// TreePool recycles candidate trees across engine iterations. Trees handed
// out by Get stay valid until they are Put back; the engine Puts the
// previous iteration's trees at the start of the next one, matching the
// schedulers' use-within-one-iteration lifetime. Not safe for concurrent
// use.
type TreePool struct {
	free []*Tree
}

// Get returns a rooted tree, reusing a recycled one when available.
func (p *TreePool) Get(ctx lm.Context) *Tree {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free = p.free[:n-1]
		t.reset(ctx)
		return t
	}
	return newTree(ctx)
}

// Put returns a tree to the pool. The caller must hold no live references
// into it (nodes, selections) past this point.
func (p *TreePool) Put(t *Tree) {
	if t != nil {
		p.free = append(p.free, t)
	}
}
