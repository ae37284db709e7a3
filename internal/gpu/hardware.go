// Package gpu models GPU execution cost for LLM inference with a
// profiling-style roofline model, mirroring the hardware-awareness AdaServe
// derives its token budget from.
//
// The model captures the three effects the paper's algorithms depend on:
//
//  1. Decoding is memory-bound at small batch sizes: per-iteration latency is
//     dominated by streaming the model weights from HBM, so verifying extra
//     speculated tokens is nearly free until the roofline knee.
//  2. Past the knee, latency grows linearly with the number of tokens in the
//     forward pass (compute-bound), so an unbounded token budget hurts.
//  3. Kernel-launch overhead is significant for small draft models and can be
//     amortized with CUDA-graph-style replay when shapes repeat.
//
// All quantities are SI: bytes, FLOP/s, seconds.
package gpu

import "fmt"

// Hardware describes one GPU's relevant roofline characteristics.
type Hardware struct {
	Name string

	// memBandwidth is the achievable HBM bandwidth in bytes/second.
	memBandwidth float64
	// flops is the peak dense FP16 tensor throughput in FLOP/second.
	flops float64
	// memCapacity is the device memory size in bytes.
	memCapacity float64
	// launchOverhead is the fixed per-kernel launch cost in seconds.
	launchOverhead float64
	// graphLaunchOverhead is the per-replay cost when a CUDA graph capturing
	// the whole iteration is reused (shape-identical invocation).
	graphLaunchOverhead float64
}

// validate reports whether the hardware description is physically sensible.
func (h Hardware) validate() error {
	if h.memBandwidth <= 0 {
		return fmt.Errorf("gpu: %s: non-positive memory bandwidth", h.Name)
	}
	if h.flops <= 0 {
		return fmt.Errorf("gpu: %s: non-positive FLOPS", h.Name)
	}
	if h.memCapacity <= 0 {
		return fmt.Errorf("gpu: %s: non-positive memory capacity", h.Name)
	}
	if h.launchOverhead < 0 || h.graphLaunchOverhead < 0 {
		return fmt.Errorf("gpu: %s: negative launch overhead", h.Name)
	}
	return nil
}

// Stock hardware profiles. Numbers are public datasheet peaks derated to
// end-to-end achievable rates for multi-GPU LLM serving (~55% of peak
// bandwidth, ~50% of peak tensor FLOPS): with these, Llama-70B FP16 on
// 4-way-TP A100s decodes at ~33 ms/token unloaded, matching published
// measurements (and the paper's ~40 ms MLPerf SLO at 1.2x baseline).
var (
	// A100 is an NVIDIA A100-SXM4-80GB, the GPU used in the paper (Table 1).
	A100 = Hardware{
		Name:                "A100-80GB",
		memBandwidth:        2.039e12 * 0.55,
		flops:               312e12 * 0.50,
		memCapacity:         80e9,
		launchOverhead:      6e-6,
		graphLaunchOverhead: 1.5e-6,
	}

	// H100 is an NVIDIA H100-SXM5-80GB, provided for hardware-sensitivity
	// ablations (the paper argues the budget is hardware-dependent).
	H100 = Hardware{
		Name:                "H100-80GB",
		memBandwidth:        3.35e12 * 0.55,
		flops:               989e12 * 0.50,
		memCapacity:         80e9,
		launchOverhead:      5e-6,
		graphLaunchOverhead: 1.2e-6,
	}
)

// ModelSpec describes a transformer LLM's cost-relevant dimensions.
type ModelSpec struct {
	name string
	// params is the total parameter count.
	params float64
	// layers is the number of transformer blocks.
	layers int
	// hidden is the model (embedding) dimension.
	hidden int
	// kvHeads is the number of key/value heads (GQA).
	kvHeads int
	// headDim is the per-head dimension.
	headDim int
	// bytesPerParam is the weight precision (2 for FP16/BF16).
	bytesPerParam float64
	// vocabSize is the output vocabulary size.
	vocabSize int
}

// weightBytes returns the total bytes of model weights.
func (m ModelSpec) weightBytes() float64 {
	return m.params * m.bytesPerParam
}

// kvBytesPerToken returns the KV-cache bytes appended per token
// (K and V, all layers, FP16).
func (m ModelSpec) kvBytesPerToken() float64 {
	return 2 * float64(m.layers) * float64(m.kvHeads) * float64(m.headDim) * 2
}

// flopsPerToken returns the dense FLOPs needed to process one token through
// the model (the standard 2·P approximation).
func (m ModelSpec) flopsPerToken() float64 {
	return 2 * m.params
}

// validate reports whether the model spec is usable by the cost model.
func (m ModelSpec) validate() error {
	if m.params <= 0 {
		return fmt.Errorf("gpu: model %s: non-positive parameter count", m.name)
	}
	if m.layers <= 0 || m.hidden <= 0 || m.kvHeads <= 0 || m.headDim <= 0 {
		return fmt.Errorf("gpu: model %s: non-positive dimensions", m.name)
	}
	if m.bytesPerParam <= 0 {
		return fmt.Errorf("gpu: model %s: non-positive bytes per param", m.name)
	}
	if m.vocabSize <= 0 {
		return fmt.Errorf("gpu: model %s: non-positive vocab size", m.name)
	}
	return nil
}

// Model specs matching the paper's evaluation (Table 1) plus the paired
// draft models. Architecture dimensions are the published ones.
var (
	Llama70B = ModelSpec{
		name: "Llama-3.1-70B-Instruct", params: 70.6e9, layers: 80,
		hidden: 8192, kvHeads: 8, headDim: 128, bytesPerParam: 2, vocabSize: 128256,
	}
	Llama1B = ModelSpec{
		name: "Llama-3.2-1B-Instruct", params: 1.24e9, layers: 16,
		hidden: 2048, kvHeads: 8, headDim: 64, bytesPerParam: 2, vocabSize: 128256,
	}
	Qwen32B = ModelSpec{
		name: "Qwen2.5-32B-Instruct", params: 32.8e9, layers: 64,
		hidden: 5120, kvHeads: 8, headDim: 128, bytesPerParam: 2, vocabSize: 152064,
	}
	Qwen05B = ModelSpec{
		name: "Qwen2.5-0.5B-Instruct", params: 0.49e9, layers: 24,
		hidden: 896, kvHeads: 2, headDim: 64, bytesPerParam: 2, vocabSize: 151936,
	}
)
