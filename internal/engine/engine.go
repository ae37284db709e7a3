// Package engine is the execution engine (Figure 6): it "runs" draft and
// target models by querying the synthetic LMs of internal/lm for token
// outcomes and the roofline cost models of internal/gpu for wall time.
// Schedulers call the engine; the engine never makes policy decisions.
//
// Timing protocol: the engine has one target forward pass, whose cost
// depends only on its batch shape (tokens, sequences, KV read), and two
// ways into it. Pass runs decode tokens plus prefill chunks; VerifyTrees
// runs selected draft trees plus prefill chunks. Both return the modeled
// GPU time; prefill chunks ride along in either, and their progress is
// applied at once. SpeculateBeams returns the draft-model time. The caller
// accumulates those into the iteration's end time and commits tokens at
// that time. This keeps the decision of *when* state becomes visible with
// the scheduler, as in a real system.
//
// Token identity: only the speculative systems (AdaServe, its interleaved
// variant and vLLM-Spec) read which tokens were generated, through the draft
// trees SpeculateBeams grows from a request's context and the verifier
// VerifyTrees runs over them. The non-speculative baselines (vLLM,
// Sarathi-Serve, FastServe, VTC) decode through Pass, whose output length
// is fixed by the trace, so their passes compute no token at all and their
// schedulers commit counts. Only the verifier draws from the engine's RNG.
package engine

import (
	"cmp"
	"fmt"
	"slices"

	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/toktree"
)

// Config assembles an engine.
type Config struct {
	Target     lm.Model
	Draft      *lm.DraftLM
	TargetCost *gpu.CostModel
	DraftCost  *gpu.CostModel
	// Rule selects the verification acceptance rule.
	Rule lm.VerifyRule
	// Seed drives the engine's verification RNG.
	Seed uint64
}

// Engine executes forward passes for one serving instance.
//
// Per-iteration scratch (candidate trees, verification results, ordering
// buffers) is reused across iterations: the objects returned by
// SpeculateBeams and VerifyTrees stay valid until the NEXT call of the same
// method, which matches how schedulers consume them (within one iteration).
// Engines are not safe for concurrent use; the parallel experiment runner
// gives every worker its own.
type Engine struct {
	draft      *lm.DraftLM
	targetCost *gpu.CostModel
	draftCost  *gpu.CostModel
	verifier   *lm.Verifier
	rng        *mathutil.RNG

	// ord is the reusable index permutation that orders a verification
	// batch by request ID for deterministic RNG consumption.
	ord  []int
	beam toktree.BeamBuilder
	// spec and ver are the last SpeculateBeams and VerifyTrees results,
	// reused in place by the next call; vscratch holds the walk buffer.
	spec     SpeculateResult
	ver      VerifyBatchResult
	vscratch toktree.VerifyScratch
}

// New builds an engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Target == nil || cfg.TargetCost == nil {
		return nil, fmt.Errorf("engine: target model and cost model required")
	}
	e := &Engine{
		draft:      cfg.Draft,
		targetCost: cfg.TargetCost,
		draftCost:  cfg.DraftCost,
		rng:        mathutil.NewRNG(cfg.Seed),
	}
	e.verifier = lm.NewVerifier(cfg.Target, cfg.Rule, e.rng)
	return e, nil
}

// Draft returns the draft model (nil when speculation is disabled).
func (e *Engine) Draft() *lm.DraftLM { return e.draft }

// TargetCost returns the target's cost model.
func (e *Engine) TargetCost() *gpu.CostModel { return e.targetCost }

// PrefillItem asks a pass to process Chunk more prompt tokens of Req.
type PrefillItem struct {
	Req   *request.Request
	Chunk int
}

// drainReloadStall collects the pending host-tier KV reload latency of
// requests entering a prefill pass, zeroing it so it is charged exactly
// once — on the request's first pass after admission. Returns 0 for batches
// without reloads, leaving pass latency bitwise unchanged when prefix
// caching is off.
func drainReloadStall(items []PrefillItem) float64 {
	stall := 0.0
	for _, it := range items {
		if s := it.Req.ReloadStall; s > 0 {
			stall += s
			it.Req.ReloadStall = 0
		}
	}
	return stall
}

// forward runs one batched target pass over a shape the caller has summed
// for its own sequences (tokens, seqs, kv) plus the prefill chunks, and
// returns its latency. It owns prefill accounting: every chunk must be
// positive and fit the request's remaining prompt; attention cost is exact
// (each new prompt token attends over all prior tokens of its sequence);
// pending reload stalls are charged; and PrefillDone advances, flipping
// requests whose prompt completes into the Decoding phase. An empty pass
// costs 0 (gpu.CostModel.ForwardLatency prices zero tokens at 0).
func (e *Engine) forward(tokens, seqs, kv int, prefill []PrefillItem) float64 {
	for _, it := range prefill {
		c, rem := it.Chunk, it.Req.RemainingPrefill()
		if c <= 0 {
			panic(fmt.Sprintf("engine: prefill chunk %d for request %d", c, it.Req.ID))
		}
		if c > rem {
			panic(fmt.Sprintf("engine: prefill chunk %d exceeds remaining %d for request %d", c, rem, it.Req.ID))
		}
		tokens += c
		kv += c*it.Req.PrefillDone + c*(c+1)/2
	}
	lat := e.targetCost.ForwardLatency(gpu.BatchShape{
		Tokens: tokens, Seqs: seqs + len(prefill), KVTokens: kv,
	}) + drainReloadStall(prefill)
	for _, it := range prefill {
		it.Req.PrefillDone += it.Chunk
		if it.Req.RemainingPrefill() == 0 {
			it.Req.Phase = request.Decoding
		}
	}
	return lat
}

// Pass runs one batched forward pass: one decode token for each decode
// request plus the prefill chunks, sharing the weight-load cost (Sarathi's
// chunked-prefill co-batching; a prefill-only or decode-only pass is the
// special case). It returns the pass latency. No token identity is
// computed: latency depends only on the batch shape and the output length
// is fixed by MaxNewTokens, so the caller commits one token per decode
// request by count (request.CommitCount) at the iteration end time.
// Prefill progress is applied immediately.
func (e *Engine) Pass(decode []*request.Request, prefill []PrefillItem) float64 {
	kv := 0
	for _, r := range decode {
		kv += r.ContextLen() + 1
	}
	return e.forward(len(decode), len(decode), kv, prefill)
}

// SpeculateResult reports the speculation phase for a batch.
type SpeculateResult struct {
	// Trees[i] is the candidate tree for reqs[i].
	Trees []toktree.Tree
	// GPUTime is the modeled draft-model time for all beam steps.
	GPUTime float64
}

// SpeculateBeams runs the speculation phase: a depth-d width-w beam search
// per request, all requests batched per step (the draft processes n·w
// tokens per step after the first, the shape regularity CUDA graphs
// exploit).
//
// The returned result and its trees are reused in place: they stay valid
// until the next SpeculateBeams call.
func (e *Engine) SpeculateBeams(reqs []*request.Request, d, w int) (*SpeculateResult, error) {
	if e.draft == nil || e.draftCost == nil {
		return nil, fmt.Errorf("engine: speculation requires a draft model")
	}
	res := &e.spec
	res.Trees = res.Trees[:0]
	res.GPUTime = 0
	for _, r := range reqs {
		res.Trees = append(res.Trees, toktree.Root(r.Ctx))
	}
	if d == 0 {
		return res, nil
	}
	totalKV := 0
	n := 0 // requests actually speculating (NoSpec ones keep root-only trees)
	for i, r := range reqs {
		if r.NoSpec {
			// Degraded request: no draft expansion, no share of the batched
			// draft cost. Its root-only tree flows through selection and
			// verification unchanged, committing one correction token.
			continue
		}
		if err := e.beam.Search(&res.Trees[i], e.draft, d, w); err != nil {
			return nil, fmt.Errorf("engine: beam search for request %d: %w", r.ID, err)
		}
		totalKV += r.ContextLen()
		n++
	}
	if n == 0 {
		return res, nil
	}
	// Cost: every search runs all d draft steps. Step 1 processes n root
	// tokens; steps 2..d process n·w beam tokens each, batched across the
	// speculating requests.
	for step := 1; step <= d; step++ {
		tokens := n
		if step > 1 {
			tokens = n * w
		}
		lat := e.draftCost.ForwardLatency(gpu.BatchShape{
			Tokens: tokens, Seqs: n, KVTokens: totalKV + n*step,
		})
		res.GPUTime += lat
	}
	return res, nil
}

// VerifyItem pairs a request with its selected draft tree.
type VerifyItem struct {
	Req *request.Request
	Sel toktree.Selection
}

// VerifyBatchResult reports one batched tree-verification pass.
type VerifyBatchResult struct {
	// Results[i] corresponds to items[i].
	Results []toktree.VerifyResult
	// GPUTime is the modeled verification pass latency.
	GPUTime float64
	// tokensVerified is the total tree positions processed.
	tokensVerified int
}

// VerifyTrees runs one batched pass that verifies the selected trees and
// processes the prefill chunks (the unified-batch style of tree-based
// serving engines: prefill tokens ride along in the same forward pass,
// sharing the weight-load cost, so prompts never stall decode as a
// monolithic pass would). Prefill progress is applied immediately; verify
// tokens are NOT committed (the caller commits at the iteration end time).
//
// The returned result is reused in place: it stays valid until the next
// VerifyTrees call.
func (e *Engine) VerifyTrees(items []VerifyItem, prefill []PrefillItem) *VerifyBatchResult {
	res := &e.ver
	res.tokensVerified = 0
	// The results' backing array grows only by extension, so the results
	// it had keep their token buffers.
	if n := len(items) - cap(res.Results); n > 0 {
		res.Results = slices.Grow(res.Results[:cap(res.Results)], n)
	}
	res.Results = res.Results[:len(items)]

	e.ord = e.ord[:0]
	for i := range items {
		e.ord = append(e.ord, i)
	}
	// IDs are unique, so the order is the same under any sort.
	slices.SortFunc(e.ord, func(a, b int) int { return cmp.Compare(items[a].Req.ID, items[b].Req.ID) })
	kv := 0
	for _, idx := range e.ord {
		it := items[idx]
		vr := &res.Results[idx]
		toktree.VerifyInto(vr, it.Sel, e.verifier, &e.vscratch)
		res.tokensVerified += vr.TokensVerified
		// Every tree token attends over the request context plus its depth.
		kv += it.Sel.Size() * (it.Req.ContextLen() + 1)
	}
	res.GPUTime = e.forward(res.tokensVerified, len(items), kv, prefill)
	return res
}

// CommitVerify applies a verification result to a request at time now:
// the accepted prefix plus the correction/bonus token, in one commit. The
// correction lands in the slot VerifyInto leaves behind the prefix, so the
// append allocates nothing.
func CommitVerify(r *request.Request, vr *toktree.VerifyResult, now float64) int {
	kept := r.Commit(append(vr.Accepted, vr.Correction), now)
	r.VerifySteps++
	return kept
}

// DraftStepLatency returns the modeled latency of one single-token draft
// decoding step at a reference context: the serial step cost that makes
// interleaved selection-and-decoding prohibitively slow (Challenge 2).
func (e *Engine) DraftStepLatency() float64 {
	if e.draftCost == nil {
		return 0
	}
	return e.draftCost.BaselineLatency(512)
}
