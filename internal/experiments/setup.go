// Package experiments assembles full serving configurations (Table 1) and
// provides one driver per table/figure of the paper's evaluation, each
// returning the rows/series the paper reports.
//
// Every run is a RunSpec: the system, an optional fleet (built by
// buildCluster, one builder for colocated, role-split, static and elastic
// fleets), the mid-run Controls, one workload and the observers. The
// sweeps — the figures, the ablations and the cluster sweeps (cluster,
// disagg, autoscale, adaptive, faults, prefix, trace) — are experiments as
// data. Each enumerates its grid as Cells, the axis values that set a cell
// apart; a cell function maps each cell to its RunSpec, and runGrid runs
// them in parallel, filling in each cell's summary. Each sweep's Table is
// a column spec the one renderer prints.
package experiments

import (
	"fmt"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/sched"
	"adaserve/internal/workload"
)

// ModelSetup is one row of Table 1: a target model, its tensor parallelism,
// the paired draft model, and the synthetic-LM parameters calibrated for it.
type ModelSetup struct {
	Name     string
	Target   gpu.ModelSpec
	TargetTP int
	draft    gpu.ModelSpec
	HW       gpu.Hardware

	// alpha is the draft/target alignment (calibrated so mean accepted
	// tokens per step land in the paper's Figure 12 range).
	alpha float64
	// vocab, branch, sharpness, tail parameterize the synthetic LM.
	vocab     int
	branch    int
	sharpness float64
	tail      float64
}

// Llama70B returns the Llama-3.1-70B-Instruct setup: 4-way TP on 4xA100,
// drafted by Llama-3.2-1B (Table 1, row 1).
func Llama70B() ModelSetup {
	return ModelSetup{
		Name:   "Llama-3.1-70B-Instruct",
		Target: gpu.Llama70B, TargetTP: 4,
		draft: gpu.Llama1B, HW: gpu.A100,
		alpha: 0.88, vocab: 4096, branch: 16, sharpness: 3.2, tail: 0.02,
	}
}

// qwen32B returns the Qwen2.5-32B-Instruct setup: 2-way TP on 2xA100,
// drafted by Qwen2.5-0.5B (Table 1, row 2).
func qwen32B() ModelSetup {
	return ModelSetup{
		Name:   "Qwen2.5-32B-Instruct",
		Target: gpu.Qwen32B, TargetTP: 2,
		draft: gpu.Qwen05B, HW: gpu.A100,
		// The 0.5B Qwen draft is weaker relative to its 32B target than the
		// 1B Llama draft is to the 70B.
		alpha: 0.84, vocab: 4096, branch: 16, sharpness: 3.0, tail: 0.02,
	}
}

// Setups returns both Table 1 rows.
func Setups() []ModelSetup { return []ModelSetup{Llama70B(), qwen32B()} }

// BaselineLatency returns the setup's unloaded per-token decode latency at a
// 512-token reference context: the paper's baseline for category-1 SLOs.
func (m ModelSetup) BaselineLatency() float64 {
	cm := gpu.MustCostModel(m.HW, m.Target, m.TargetTP)
	return cm.BaselineLatency(512)
}

// SystemKind names a serving system configuration.
type SystemKind string

// The systems of the evaluation.
const (
	SysAdaServe     SystemKind = "AdaServe"
	SysVLLM         SystemKind = "vLLM"
	SysVLLMPriority SystemKind = "vLLM + Priority"
	SysSarathi      SystemKind = "Sarathi-Serve"
	SysVLLMSpec4    SystemKind = "vLLM-Spec (4)"
	SysVLLMSpec6    SystemKind = "vLLM-Spec (6)"
	SysVLLMSpec8    SystemKind = "vLLM-Spec (8)"
	SysFastServe    SystemKind = "FastServe"
	SysVTC          SystemKind = "VTC"
	// sysAdaServeInterleaved is the Challenge-2 ablation: Algorithm 1 run
	// directly with interleaved GetTop + draft decoding ((B−n) serial draft
	// steps per iteration) instead of the decoupled speculate-select
	// pipeline.
	sysAdaServeInterleaved SystemKind = "AdaServe (interleaved)"
)

// endToEndSystems are the systems of Figures 8-12 and 14.
func endToEndSystems() []SystemKind {
	return []SystemKind{SysAdaServe, SysSarathi, SysVLLM, SysVLLMSpec4, SysVLLMSpec6, SysVLLMSpec8}
}

// figure1Systems are the systems of the motivating Figure 1.
func figure1Systems() []SystemKind {
	return []SystemKind{SysVLLM, SysSarathi, SysVLLMPriority, SysFastServe, SysVTC}
}

// knownSystems lists every system configuration Build accepts.
func knownSystems() []SystemKind {
	return []SystemKind{
		SysAdaServe, SysVLLM, SysVLLMPriority, SysSarathi,
		SysVLLMSpec4, SysVLLMSpec6, SysVLLMSpec8,
		SysFastServe, SysVTC, sysAdaServeInterleaved,
	}
}

// ParseSystem resolves a CLI system name to a SystemKind, failing with a
// one-line error that lists the valid names — so binaries can reject typos
// up front instead of panicking or erroring deep in setup.
func ParseSystem(name string) (SystemKind, error) {
	for _, k := range knownSystems() {
		if string(k) == name {
			return k, nil
		}
	}
	return "", fmt.Errorf("experiments: unknown system %q (have %v)", name, knownSystems())
}

// ParseModel resolves a CLI model name, llama or qwen, to its setup,
// failing with a one-line error that lists the valid names.
func ParseModel(name string) (ModelSetup, error) {
	switch name {
	case "llama":
		return Llama70B(), nil
	case "qwen":
		return qwen32B(), nil
	}
	return ModelSetup{}, fmt.Errorf("unknown model %q (llama, qwen)", name)
}

// maxBatch is every built system's running-sequence cap.
const maxBatch = 256

// BuildOptions tunes system construction.
type BuildOptions struct {
	// Seed differentiates runs; it drives the engine's verification RNG.
	Seed uint64
	// rule selects the verification acceptance rule (default stochastic).
	rule lm.VerifyRule
	// StaticController forces AdaServe to fixed (d,w) (ablation) when both
	// are > 0.
	StaticD, StaticW int
	// disableNMax removes AdaServe's per-request selection cap (ablation).
	disableNMax bool
	// disableCUDAGraphs turns off graph-replay amortization (ablation).
	disableCUDAGraphs bool
	// Prefix enables shared-prefix KV reuse on the system's allocator.
	Prefix bool
	// PrefixHostBlocks sizes the host offload tier in KV blocks (0: no
	// tier — cold prefix blocks evicted under pressure are dropped). Only
	// meaningful with Prefix set; reloads are priced over PCIe4.
	PrefixHostBlocks int
}

// Build assembles a ready-to-run serving system of the given kind on the
// given model setup.
func Build(kind SystemKind, setup ModelSetup, opts BuildOptions) (sched.System, error) {
	return build(kind, setup, opts, sched.ModeMixed)
}

// build is Build for a replica whose fleet role restricts its admission
// mode.
func build(kind SystemKind, setup ModelSetup, opts BuildOptions, mode sched.Mode) (sched.System, error) {
	target := lm.MustSyntheticLM(mathutil.Hash2(opts.Seed, 0x7a26e7), setup.vocab, setup.branch, setup.sharpness, setup.tail)
	draft := lm.MustDraftLM(target, setup.alpha, mathutil.Hash2(opts.Seed, 0xd12af7))

	targetCost, err := gpu.NewCostModel(setup.HW, setup.Target, setup.TargetTP)
	if err != nil {
		return nil, err
	}
	draftCost, err := gpu.NewCostModel(setup.HW, setup.draft, 1)
	if err != nil {
		return nil, err
	}
	if opts.disableCUDAGraphs {
		targetCost.UseCUDAGraphs = false
		draftCost.UseCUDAGraphs = false
	}

	eng, err := engine.New(engine.Config{
		Target: target, Draft: draft,
		TargetCost: targetCost, DraftCost: draftCost,
		Rule: opts.rule, Seed: mathutil.Hash2(opts.Seed, 0xe0617e),
	})
	if err != nil {
		return nil, err
	}

	kvTokens := targetCost.KVCapacityTokens(0.10)
	kv := kvcache.MustNew(kvcache.ConfigForTokens(kvTokens, 16))
	if opts.Prefix {
		reload := gpu.KVTransfer{Model: setup.Target, Link: gpu.PCIe4}
		if err := kv.EnablePrefix(kvcache.PrefixConfig{
			HostBlocks:    opts.PrefixHostBlocks,
			ReloadLatency: reload.Latency,
		}); err != nil {
			return nil, err
		}
	}

	cfg := sched.Config{
		Engine: eng, KV: kv,
		MaxBatch:         maxBatch,
		MaxPrefillTokens: 2048,
		SchedOverhead:    30e-6,
		Mode:             mode,
	}

	switch kind {
	case SysAdaServe:
		var aopts sched.AdaServeOptions
		if opts.StaticD > 0 && opts.StaticW > 0 {
			c := core.StaticController(opts.StaticD, opts.StaticW)
			aopts.Controller = &c
		}
		if opts.disableNMax {
			aopts.NMax = -1
		}
		return sched.NewAdaServe(cfg, aopts)
	case SysVLLM:
		return sched.NewVLLM(cfg)
	case SysVLLMPriority:
		v, err := sched.NewVLLM(cfg)
		if err != nil {
			return nil, err
		}
		v.PriorityAware = true
		return v, nil
	case SysSarathi:
		return sched.NewSarathi(cfg)
	case SysVLLMSpec4:
		return sched.NewVLLMSpec(cfg, 4)
	case SysVLLMSpec6:
		return sched.NewVLLMSpec(cfg, 6)
	case SysVLLMSpec8:
		return sched.NewVLLMSpec(cfg, 8)
	case SysFastServe:
		return sched.NewFastServe(cfg)
	case SysVTC:
		return sched.NewVTC(cfg)
	case sysAdaServeInterleaved:
		return sched.NewAdaServeInterleaved(cfg)
	default:
		return nil, fmt.Errorf("experiments: unknown system %q (have %v)", kind, knownSystems())
	}
}

// NewGenerator builds the workload generator for a setup with the given mix
// and SLO scale.
func NewGenerator(setup ModelSetup, mix workload.Mix, sloScale float64, seed uint64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.GeneratorConfig{
		Seed:            seed,
		Mix:             mix,
		BaselineLatency: setup.BaselineLatency(),
		SLOScale:        sloScale,
	})
}
