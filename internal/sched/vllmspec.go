package sched

import (
	"fmt"

	"adaserve/internal/engine"
	"adaserve/internal/toktree"
)

// VLLMSpec is the vLLM-Spec(k) baseline: continuous batching plus static
// sequence speculation. Each decode iteration the draft model proposes a
// fixed-length chain of k tokens per request (no tree, no SLO awareness,
// no load adaptation), which the target verifies in one pass.
type VLLMSpec struct {
	base
	// k is the static speculation length.
	k int

	// Per-iteration scratch reused across Iterate calls.
	items []engine.VerifyItem
}

// NewVLLMSpec constructs the baseline with speculation length k.
func NewVLLMSpec(cfg Config, k int) (*VLLMSpec, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, fmt.Errorf("sched: vLLM-Spec needs k >= 1, got %d", k)
	}
	if cfg.Engine.Draft() == nil {
		return nil, fmt.Errorf("sched: vLLM-Spec requires a draft model")
	}
	return &VLLMSpec{base: b, k: k}, nil
}

// Name implements System.
func (v *VLLMSpec) Name() string { return fmt.Sprintf("vLLM-Spec (%d)", v.k) }

// Iterate implements System.
func (v *VLLMSpec) Iterate(now float64) IterationStats {
	v.finish()
	v.admitFIFO(now)

	if st, ok := v.prefillWhole(now); ok {
		return st
	}

	decode := v.pool.DecodingRequests()
	if len(decode) == 0 {
		return IterationStats{Idle: true}
	}
	markFirstDecode(decode, now)

	spec, err := v.cfg.Engine.SpeculateBeams(decode, v.k, 1)
	if err != nil {
		panic(err)
	}
	v.items = v.items[:0]
	for i, r := range decode {
		// Static speculation verifies the whole chain unconditionally.
		tr := spec.Trees[i]
		v.items = append(v.items, engine.VerifyItem{Req: r, Sel: toktree.Prefix(tr, tr.Size())})
	}
	ver := v.cfg.Engine.VerifyTrees(v.items, nil)
	st := IterationStats{
		Elapsed:    spec.GPUTime + ver.GPUTime + v.cfg.SchedOverhead,
		SchedCPU:   v.cfg.SchedOverhead,
		SpecTime:   spec.GPUTime,
		VerifyTime: ver.GPUTime,
	}
	end := now + st.Elapsed
	for i, r := range decode {
		st.TokensCommitted += engine.CommitVerify(r, ver.Results[i], end)
	}
	return st
}
