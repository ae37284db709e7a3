// Package adaserve_test holds the microbenchmarks of the simulator's hot
// paths (run with `go test -bench=. -benchmem`). The benchmarks that
// regenerate the paper's tables and figures live in internal/experiments.
package adaserve_test

import (
	"testing"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/toktree"
)

func benchModels(b *testing.B) (*lm.SyntheticLM, *lm.DraftLM) {
	b.Helper()
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.88, 2)
	return target, draft
}

// BenchmarkLMDist measures one synthetic next-token distribution and its
// argmax: every op asks for a fresh context, as the draft-step and verify
// calls of a simulation almost always do. A Dist is lazy, so the argmax
// read generates the candidates up to rank 0 (or up to the swapped rank of
// a mistaken draft context).
func BenchmarkLMDist(b *testing.B) {
	target, draft := benchModels(b)
	// One counter across every run of every sub-benchmark, so no context
	// ever repeats.
	seed := uint64(0)
	for _, c := range []struct {
		name  string
		model lm.Model
	}{{"target", target}, {"draft", draft}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed++
				_ = c.model.Dist(lm.Context{ReqSeed: seed}).Argmax()
			}
		})
	}
}

// BenchmarkBeamSearch measures candidate-tree construction (d=6, w=4) on
// the path the engine uses: a root-only tree and a reused beam builder.
// Search shares the cached shape and calls no Dist; the draft's token reads
// are paid by verification, so compare this benchmark with
// BenchmarkVerifyTree as their sum.
func BenchmarkBeamSearch(b *testing.B) {
	_, draft := benchModels(b)
	ctx := lm.Context{ReqSeed: 9}
	var bb toktree.BeamBuilder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := toktree.Root(ctx)
		if err := bb.Search(&t, draft, 6, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTree grows a fresh d=6, w=4 candidate tree for request seed.
func benchTree(b *testing.B, draft *lm.DraftLM, seed uint64) *toktree.Tree {
	t := toktree.Root(lm.Context{ReqSeed: seed})
	var bb toktree.BeamBuilder
	if err := bb.Search(&t, draft, 6, 4); err != nil {
		b.Fatal(err)
	}
	return &t
}

// BenchmarkSelect measures Algorithm 2's selection phases over 16 candidate
// trees with a 128-token budget — the per-iteration CPU cost Figure 15
// bounds — on the pooled Selector path schedulers use.
func BenchmarkSelect(b *testing.B) {
	_, draft := benchModels(b)
	var reqs []core.SelectRequest
	for i := 0; i < 16; i++ {
		reqs = append(reqs, core.SelectRequest{Cand: benchTree(b, draft, uint64(i)), MinAccept: 1.5})
	}
	var sel core.Selector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(reqs, core.SelectConfig{Budget: 128, Depth: 6, PerRequestMax: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

// verifySink keeps BenchmarkVerifyTree's fresh result on the heap.
var verifySink *toktree.VerifyResult

// BenchmarkVerifyTree measures one tree verification walk over a whole
// searched tree with a fresh result and scratch on every call, including
// the draft Dist calls that fill the walked nodes' children's tokens.
func BenchmarkVerifyTree(b *testing.B) {
	target, draft := benchModels(b)
	tree := benchTree(b, draft, 3)
	sel := toktree.Prefix(tree, tree.Size())
	v := lm.NewVerifier(target, lm.RuleSampleMatch, mathutil.NewRNG(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &toktree.VerifyResult{}
		toktree.VerifyInto(res, sel, v, &toktree.VerifyScratch{})
		verifySink = res
	}
}

// BenchmarkCostModel measures one roofline latency evaluation.
func BenchmarkCostModel(b *testing.B) {
	cm := gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4)
	shape := gpu.BatchShape{Tokens: 128, Seqs: 32, KVTokens: 32 * 700}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.ForwardLatencyPure(shape)
	}
}

// BenchmarkEngineIteration measures one full AdaServe speculate-select-
// verify iteration over an 8-request batch (simulated time excluded; this
// is the real CPU cost of the simulator itself).
func BenchmarkEngineIteration(b *testing.B) {
	target, draft := benchModels(b)
	eng, err := engine.New(engine.Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       3,
	})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]*request.Request, 8)
	for i := range reqs {
		r := request.New(i, request.Chat, 0.05, 0, 64, 1<<30, uint64(i)*17+3)
		r.Phase = request.Decoding
		r.PrefillDone = 64
		reqs[i] = r
	}
	// Per-iteration scratch reused the way schedulers reuse it.
	var sel core.Selector
	selReqs := make([]core.SelectRequest, len(reqs))
	items := make([]engine.VerifyItem, len(reqs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := eng.SpeculateBeams(reqs, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j := range reqs {
			selReqs[j] = core.SelectRequest{Cand: &spec.Trees[j], MinAccept: 1.5}
		}
		selRes, err := sel.Select(selReqs, core.SelectConfig{Budget: 96, Depth: 4, PerRequestMax: 10})
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range reqs {
			items[j] = engine.VerifyItem{Req: r, Sel: selRes.Selections[j]}
		}
		ver := eng.VerifyTrees(items, nil)
		for j, r := range reqs {
			engine.CommitVerify(r, &ver.Results[j], 0)
		}
	}
}
