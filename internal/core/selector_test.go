package core

import (
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/toktree"
)

// TestSelectorMatchesSelect drives one pooled Selector through many
// iterations with varying batch sizes and checks every result against a
// fresh Selector's — the pooling-determinism contract schedulers rely on.
func TestSelectorMatchesSelect(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.85, 2)
	rng := mathutil.NewRNG(99)
	var sel Selector
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(12)
		reqs := make([]SelectRequest, n)
		for i := range reqs {
			tr := toktree.Root(lm.Context{ReqSeed: uint64(iter*100 + i)})
			var bb toktree.BeamBuilder
			if err := bb.Search(&tr, draft, 1+rng.Intn(6), 1+rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
			reqs[i] = SelectRequest{Cand: &tr, MinAccept: float64(rng.Intn(8)) / 2}
		}
		cfg := SelectConfig{
			Budget:        n + rng.Intn(64),
			Depth:         6,
			PerRequestMax: rng.Intn(12), // 0 = unlimited on some iterations
		}
		want, err := new(Selector).Select(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sel.Select(reqs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.BudgetUsed != want.BudgetUsed {
			t.Fatalf("iter %d: BudgetUsed %d, want %d", iter, got.BudgetUsed, want.BudgetUsed)
		}
		for i := range reqs {
			if got.expectedAccept[i] != want.expectedAccept[i] ||
				!reflect.DeepEqual(got.Selections[i], want.Selections[i]) {
				t.Fatalf("iter %d req %d: pooled selector diverged", iter, i)
			}
		}
	}
}

// TestSelectorAllocatesNothingWarm pins the Selector's pooling: once warm,
// Select allocates nothing.
func TestSelectorAllocatesNothingWarm(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.85, 2)
	var bb toktree.BeamBuilder
	reqs := make([]SelectRequest, 12)
	for i := range reqs {
		tr := toktree.Root(lm.Context{ReqSeed: uint64(i)})
		if err := bb.Search(&tr, draft, 5, 3); err != nil {
			t.Fatal(err)
		}
		reqs[i] = SelectRequest{Cand: &tr, MinAccept: float64(i%4) / 2}
	}
	cfg := SelectConfig{Budget: 96, Depth: 5, PerRequestMax: 10}
	var sel Selector
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := sel.Select(reqs, cfg); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a warm Select allocates %v times", allocs)
	}
}
