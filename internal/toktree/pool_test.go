package toktree

import (
	"slices"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func poolTestDraft(t *testing.T) *lm.DraftLM {
	t.Helper()
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	return lm.MustDraftLM(target, 0.85, 2)
}

// treesEqual compares full tree structure node by node.
func treesEqual(a, b *Tree) bool {
	if len(a.Nodes) != len(b.Nodes) || a.ctx != b.ctx || !slices.Equal(a.order, b.order) {
		return false
	}
	for i := range a.Nodes {
		x, y := &a.Nodes[i], &b.Nodes[i]
		if x.token != y.token || x.rank != y.rank ||
			x.depth != y.depth || x.PathProb != y.PathProb ||
			len(x.Children) != len(y.Children) {
			return false
		}
		for k := range x.Children {
			if x.Children[k] != y.Children[k] {
				return false
			}
		}
	}
	return true
}

// TestPooledBeamMatchesFresh drives a pooled tree + reused BeamBuilder
// through many searches and checks every tree is byte-identical to a fresh
// tree grown by a fresh builder from the same inputs — the pooling-determinism contract the
// engine relies on.
func TestPooledBeamMatchesFresh(t *testing.T) {
	draft := poolTestDraft(t)
	var pool TreePool
	var bb BeamBuilder
	rng := mathutil.NewRNG(42)
	var prev *Tree
	for i := 0; i < 200; i++ {
		ctx := lm.Context{ReqSeed: uint64(i % 13)}.Extend(lm.Token(rng.Intn(64)))
		d, w := 1+rng.Intn(7), 1+rng.Intn(4)

		if prev != nil {
			pool.Put(prev)
		}
		pooled := pool.Get(ctx)
		if err := bb.Search(pooled, draft, d, w); err != nil {
			t.Fatal(err)
		}
		prev = pooled

		fresh := search(t, draft, ctx, d, w)
		pooled.materialize()
		fresh.materialize()
		if !treesEqual(pooled, fresh) {
			t.Fatalf("iteration %d (d=%d w=%d): pooled tree differs from fresh", i, d, w)
		}
		if err := pooled.validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestTreeResetReusesStorage checks Reset produces a root-only tree and that
// warm rebuilds do not grow node storage.
func TestTreeResetReusesStorage(t *testing.T) {
	draft := poolTestDraft(t)
	tr := newTree(lm.Context{ReqSeed: 1})
	var bb BeamBuilder
	if err := bb.Search(tr, draft, 6, 4); err != nil {
		t.Fatal(err)
	}
	grown := cap(tr.Nodes)
	tr.reset(lm.Context{ReqSeed: 2})
	if tr.Size() != 1 || len(tr.Nodes[0].Children) != 0 || tr.ctx != (lm.Context{ReqSeed: 2}) || tr.draft != nil {
		t.Fatalf("reset tree malformed: %+v", tr.Nodes[0])
	}
	if cap(tr.Nodes) != grown {
		t.Fatal("Reset dropped node capacity")
	}
	if err := bb.Search(tr, draft, 6, 4); err != nil {
		t.Fatal(err)
	}
	if err := tr.validate(); err != nil {
		t.Fatal(err)
	}
}

// TestVerifyIntoMatchesVerify runs pooled-scratch verification against a
// walk with fresh storage over many trees and seeds.
func TestVerifyIntoMatchesVerify(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.8, 2)
	var sc VerifyScratch
	var res VerifyResult
	for i := 0; i < 100; i++ {
		tr := search(t, draft, lm.Context{ReqSeed: uint64(i)}, 5, 3)
		sel := Prefix(tr, 1+i%tr.Size())
		// Identical RNG state for both walks.
		v1 := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(uint64(i)))
		v2 := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(uint64(i)))
		want := verify(sel, v1)
		VerifyInto(&res, sel, v2, &sc)
		if want.Correction != res.Correction || len(want.Accepted) != len(res.Accepted) {
			t.Fatalf("tree %d: pooled verify diverged: %+v vs %+v", i, want, res)
		}
		for k := range want.Accepted {
			if want.Accepted[k] != res.Accepted[k] {
				t.Fatalf("tree %d: accepted prefix differs at %d", i, k)
			}
		}
		if want.TokensVerified != res.TokensVerified {
			t.Fatalf("tree %d: TokensVerified %d vs %d", i, want.TokensVerified, res.TokensVerified)
		}
	}
}
