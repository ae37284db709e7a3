package toktree

import (
	"slices"
	"sort"
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
		if x.token != y.token || x.parent != y.parent || x.rank != y.rank ||
			x.depth != y.depth || x.draftProb != y.draftProb || x.PathProb != y.PathProb ||
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
		root := lm.Token(rng.Intn(256))
		d, w := 1+rng.Intn(7), 1+rng.Intn(4)

		if prev != nil {
			pool.Put(prev)
		}
		pooled := pool.Get(ctx, root)
		if err := bb.Search(pooled, draft, d, w); err != nil {
			t.Fatal(err)
		}
		prev = pooled

		fresh := search(t, draft, ctx, root, d, w)
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
	tr := NewTree(lm.Context{ReqSeed: 1}, 7)
	var bb BeamBuilder
	if err := bb.Search(tr, draft, 6, 4); err != nil {
		t.Fatal(err)
	}
	grown := cap(tr.Nodes)
	tr.reset(lm.Context{ReqSeed: 2}, 9)
	if tr.Size() != 1 || tr.Nodes[0].token != 9 || tr.Nodes[0].parent != -1 {
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

// TestAddChildInsertionMatchesSort fuzzes AddChild's insertion step against
// a reference stable sort over random child orders.
func TestAddChildInsertionMatchesSort(t *testing.T) {
	rng := mathutil.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		tr := NewTree(lm.Context{ReqSeed: uint64(trial)}, 0)
		n := 2 + rng.Intn(8)
		for i := 0; i < n; i++ {
			// Coarse probabilities force ties; tokens may repeat across
			// children to exercise the secondary key.
			tr.AddChild(0, lm.Token(rng.Intn(4)), float64(rng.Intn(3))/4)
		}
		got := append([]int(nil), tr.Nodes[0].Children...)
		want := append([]int(nil), got...)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := &tr.Nodes[want[i]], &tr.Nodes[want[j]]
			if a.draftProb != b.draftProb {
				return a.draftProb > b.draftProb
			}
			return a.token < b.token
		})
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: children %v, want %v", trial, got, want)
			}
		}
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
		tr := search(t, draft, lm.Context{ReqSeed: uint64(i)}, 5, 5, 3)
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
