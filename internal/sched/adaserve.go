package sched

import (
	"fmt"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
)

// AdaServe is the paper's system: SLO-customized speculative decoding with a
// speculate → SLO-customized-select → throughput-optimized-select → verify
// pipeline per decode iteration, a hardware-profiled verification token
// budget, and adaptive speculation parameters (Eq. 8–9).
type AdaServe struct {
	base
	// controller adapts the speculation depth and width to load.
	controller core.Controller
	// profile is the fitted roofline of the verifier (target model).
	profile *gpu.Profile
	// verifyBudget is B: the per-iteration verification token budget chosen
	// from the profile ("an optimal budget that balances decoding
	// throughput and latency").
	verifyBudget int
	// nMax caps one request's draft-tree size during SLO-customized
	// selection (n_max in Algorithm 2); <= 0 disables the cap (ablation).
	nMax int
	// tokensPerRequest floors the budget at n x this under high load, so
	// heavy batches are not starved below what static speculation would
	// spend (the profiled budget governs at low load).
	tokensPerRequest int

	// lastIterTime smooths the t_spec estimate used in A(r) with the
	// previous iteration's actual duration.
	lastIterTime float64

	// baseDMax/baseWMax freeze the constructed controller's ceilings:
	// ClampSpecEnvelope may narrow the runtime envelope but never exceed
	// what the system was built (and budgeted) for.
	baseDMax, baseWMax int

	// Per-iteration scratch, reused across Iterate calls so the steady
	// state allocates nothing: the pooled selector plus the selection-input,
	// verify-item and prefill-item slices.
	selector core.Selector
	selReqs  []core.SelectRequest
	items    []engine.VerifyItem
	prefill  []engine.PrefillItem

	// Debug accumulates per-iteration internals for tests and diagnosis.
	Debug AdaServeDebug
}

// AdaServeDebug aggregates scheduler internals across a run: the decode
// iteration count and the sums of their depth, token budget and budget
// used.
type AdaServeDebug struct {
	DecodeIters   int
	SumDepth      int
	SumBudget     int
	SumBudgetUsed int
}

// budgetLatencyFactor sets AdaServe's verification latency target as a
// multiple of the profiled flat-region (memory-bound) step latency; the
// per-iteration token budget B is the largest token count whose
// verification fits that target. 1.3 keeps B at the knee of the latency
// curve: a full-budget verification pass costs at most 30% more than the
// memory-bound floor, so the extra tokens are nearly free while every
// iteration stays close to the baseline per-token latency the tight TPOT
// SLOs are set against.
const budgetLatencyFactor = 1.3

// VerifyBudget profiles the target cost model cm and returns the profile
// with AdaServe's verification token budget B: the largest token count
// whose predicted verification latency stays within budgetLatencyFactor ×
// the profiled flat-region latency.
func VerifyBudget(cm *gpu.CostModel) (*gpu.Profile, int, error) {
	prof, err := gpu.ProfileCostModel(cm, 4096, 512)
	if err != nil {
		return nil, 0, fmt.Errorf("sched: profiling target: %w", err)
	}
	return prof, prof.BudgetFor(budgetLatencyFactor * prof.Base), nil
}

// selectCPUPerNode models the CPU cost of the selection phases per
// candidate node (heap operations), in seconds.
const selectCPUPerNode = 150e-9

// adaServePrefillChunk is the baseline number of prompt tokens co-batched
// into each verification pass. AdaServe's unified engine rides prefill
// chunks along with tree verification (the paper's Figure 15 has no
// separate prefill phase), so prompts never block decode with monolithic
// passes. The chunk grows with the prefill backlog.
const adaServePrefillChunk = 128

// AdaServeOptions tunes construction.
type AdaServeOptions struct {
	// NMax overrides the per-request selection cap (default 2·(DMax+1)).
	NMax int
	// Controller overrides the adaptive controller (zero value: derived
	// from the budget via core.DefaultController).
	Controller *core.Controller
}

// NewAdaServe profiles the engine's target cost model and assembles the
// system.
func NewAdaServe(cfg Config, opts AdaServeOptions) (*AdaServe, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Engine.Draft() == nil {
		return nil, fmt.Errorf("sched: AdaServe requires a draft model")
	}
	prof, budget, err := VerifyBudget(cfg.Engine.TargetCost())
	if err != nil {
		return nil, err
	}
	var ctrl core.Controller
	if opts.Controller != nil {
		ctrl = *opts.Controller
	} else {
		ctrl = core.DefaultController(budget)
	}
	if err := ctrl.Validate(); err != nil {
		return nil, err
	}
	nmax := opts.NMax
	if nmax == 0 {
		nmax = 2 * (ctrl.DMax + 1)
	}
	return &AdaServe{
		base:             b,
		controller:       ctrl,
		baseDMax:         ctrl.DMax,
		baseWMax:         ctrl.WMax,
		profile:          prof,
		verifyBudget:     budget,
		nMax:             nmax,
		tokensPerRequest: 4,
	}, nil
}

// Name implements System.
func (a *AdaServe) Name() string { return "AdaServe" }

// SpecEnvelope returns the adaptive controller's current depth and width
// ceilings — the DMax/WMax bounds the per-iteration Eq. 8–9 evaluation
// clips into.
func (a *AdaServe) SpecEnvelope() (dmax, wmax int) {
	return a.controller.DMax, a.controller.WMax
}

// ClampSpecEnvelope retunes the speculation envelope at runtime: a
// closed-loop controller narrows (or restores) the Eq. 8–9 ceilings as the
// observed acceptance rate drifts. dmax is clipped to the constructed
// [DMin, DMax] and wmax to [1, WMax], so actuation is always bounded by
// what the system was built for; within the new ceilings the per-iteration
// evaluation keeps adapting to load as before.
func (a *AdaServe) ClampSpecEnvelope(dmax, wmax int) {
	a.controller.DMax = mathutil.ClipInt(dmax, a.controller.DMin, a.baseDMax)
	a.controller.WMax = mathutil.ClipInt(wmax, 1, a.baseWMax)
}

// Iterate implements System: one full SLO-customized speculative decoding
// iteration (Algorithm 2 embedded in the serving loop of Figure 6).
func (a *AdaServe) Iterate(now float64) IterationStats {
	a.finish()
	a.admitFIFO(now)

	decode := a.pool.DecodingRequests()
	n := len(decode)
	if n == 0 {
		// Nothing decoding: run a plain prefill-only pass (no one to hurt
		// with a monolithic pass).
		if st, ok := a.prefillWhole(now); ok {
			return st
		}
		return IterationStats{Idle: true}
	}
	markFirstDecode(decode, now)

	// Budget for this iteration: the profiled budget at low load, scaling
	// with the batch under high load so requests are not starved below
	// plain static speculation.
	budget := a.verifyBudget
	if scaled := n * a.tokensPerRequest; scaled > budget {
		budget = scaled
	}
	if budget < n {
		budget = n
	}

	// Adaptive control: (d, w) from the active-request count (Eq. 8–9),
	// evaluated at this iteration's effective budget.
	d, w := a.controller.ParamsWithBudget(n, budget, budget)

	// Step 1: speculation (beam search candidate trees).
	spec, err := a.cfg.Engine.SpeculateBeams(decode, d, w)
	if err != nil {
		panic(err)
	}

	// Estimate t_spec (the iteration's duration) for the TPOT constraint:
	// known speculation time + profiled verification time at the budget,
	// smoothed with the previous iteration's actual duration.
	tspec := spec.GPUTime + a.profile.Latency(budget) + a.cfg.SchedOverhead
	if a.lastIterTime > tspec {
		tspec = a.lastIterTime
	}

	// Steps 2+3: SLO-customized and throughput-optimized selection.
	a.selReqs = a.selReqs[:0]
	candNodes := 0
	for i, r := range decode {
		minAcc := r.MinAcceptFor(now, tspec, r.TPOTSLO)
		if minAcc < 0 {
			minAcc = 0
		}
		a.selReqs = append(a.selReqs, core.SelectRequest{Cand: &spec.Trees[i], MinAccept: minAcc})
		candNodes += spec.Trees[i].Size()
	}
	// n_max prevents requests that are far behind their SLO from
	// monopolizing the budget with low-probability nodes (Algorithm 2). It
	// tracks twice the fair share so catching-up requests can overdraw,
	// bounded by the configured cap and floored at d+1 (a full chain).
	nmax := a.nMax
	if nmax > 0 {
		fair := 3 * budget / (2 * n)
		if fair < d+1 {
			fair = d + 1
		}
		if fair < nmax {
			nmax = fair
		}
	}
	selRes, err := a.selector.Select(a.selReqs, core.SelectConfig{
		Budget: budget, Depth: d, PerRequestMax: nmax,
	})
	if err != nil {
		panic(err)
	}
	selCPU := a.cfg.SchedOverhead + selectCPUPerNode*float64(candNodes)

	// Step 4: tree verification, with prefill chunks co-batched into the
	// same pass. The chunk budget grows with the prefill backlog so prompt
	// processing keeps pace without monolithic latency spikes.
	a.items = a.items[:0]
	for i, r := range decode {
		a.items = append(a.items, engine.VerifyItem{Req: r, Sel: selRes.Selections[i]})
	}
	a.prefill = a.prefill[:0]
	pre := a.pool.PrefillingRequests()
	backlog := 0
	for _, r := range pre {
		backlog += r.RemainingPrefill()
	}
	chunkBudget := min(max(backlog/4, adaServePrefillChunk), a.cfg.MaxPrefillTokens)
	for _, r := range pre {
		if chunkBudget <= 0 {
			break
		}
		c := min(r.RemainingPrefill(), chunkBudget)
		a.prefill = append(a.prefill, engine.PrefillItem{Req: r, Chunk: c})
		chunkBudget -= c
	}
	ver := a.cfg.Engine.VerifyTrees(a.items, a.prefill)

	st := IterationStats{
		Elapsed:    spec.GPUTime + selCPU + ver.GPUTime,
		SchedCPU:   selCPU,
		SpecTime:   spec.GPUTime,
		VerifyTime: ver.GPUTime,
	}
	end := now + st.Elapsed
	for i, r := range decode {
		st.TokensCommitted += engine.CommitVerify(r, &ver.Results[i], end)
	}
	a.lastIterTime = st.Elapsed

	a.Debug.DecodeIters++
	a.Debug.SumDepth += d
	a.Debug.SumBudget += budget
	a.Debug.SumBudgetUsed += selRes.BudgetUsed
	return st
}
