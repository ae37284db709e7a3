package gpu

import (
	"fmt"
	"math"
)

// BatchShape summarizes one forward pass for costing purposes.
type BatchShape struct {
	// Tokens is the total number of input positions processed in this pass
	// (sum over sequences of new tokens: 1 for plain decode, the tree size
	// for tree verification, the chunk length for prefill).
	Tokens int
	// Seqs is the number of distinct sequences in the batch.
	Seqs int
	// KVTokens is the total context length attended over, summed across
	// sequences (drives KV-cache reads).
	KVTokens int
}

// validate reports whether the shape is well-formed.
func (b BatchShape) validate() error {
	if b.Tokens < 0 || b.Seqs < 0 || b.KVTokens < 0 {
		return fmt.Errorf("gpu: negative batch shape %+v", b)
	}
	if b.Seqs > b.Tokens && b.Tokens > 0 {
		return fmt.Errorf("gpu: batch shape has more sequences than tokens: %+v", b)
	}
	return nil
}

// CostModel estimates forward-pass latency for one model on one tensor-
// parallel group of identical GPUs using a roofline:
//
//	latency = max(weight-load time, compute time) + KV-read time + launch overhead
//
// Tensor parallelism divides both bandwidth-bound and compute-bound terms by
// TP and adds a per-layer all-reduce cost.
type CostModel struct {
	hw    Hardware
	model ModelSpec
	// tp is the tensor-parallel degree (>= 1).
	tp int
	// UseCUDAGraphs enables graph-replay launch-overhead amortization for
	// shape-identical invocations.
	UseCUDAGraphs bool
	// kernelsPerLayer approximates how many kernel launches one transformer
	// layer needs without graph capture.
	kernelsPerLayer int
	// allReduceLatency is the per-layer collective cost with TP > 1, seconds.
	allReduceLatency float64
	// bandwidthUtil scales achievable memory bandwidth for this model.
	// Small models cannot saturate HBM (their per-layer tensors are too
	// small to hide latency), which is why ~1B draft models decode at
	// ~5 ms/step rather than the ~1 ms a pure roofline predicts. Defaults
	// to min(1, sqrt(params/8e9)).
	bandwidthUtil float64

	// graphCache remembers shapes already "captured"; replays are cheaper.
	graphCache map[graphKey]struct{}
}

type graphKey struct {
	tokens int
	seqs   int
}

// NewCostModel constructs a validated cost model.
func NewCostModel(hw Hardware, model ModelSpec, tp int) (*CostModel, error) {
	if err := hw.validate(); err != nil {
		return nil, err
	}
	if err := model.validate(); err != nil {
		return nil, err
	}
	if tp < 1 {
		return nil, fmt.Errorf("gpu: tensor parallel degree %d < 1", tp)
	}
	if model.weightBytes()/float64(tp) > hw.memCapacity {
		return nil, fmt.Errorf("gpu: model %s (%.0f GB) does not fit on %d x %s",
			model.name, model.weightBytes()/1e9, tp, hw.Name)
	}
	util := math.Sqrt(model.params / 8e9)
	if util > 1 {
		util = 1
	}
	return &CostModel{
		hw:               hw,
		model:            model,
		tp:               tp,
		UseCUDAGraphs:    true,
		kernelsPerLayer:  8,
		allReduceLatency: 4e-6,
		bandwidthUtil:    util,
	}, nil
}

// MustCostModel is NewCostModel that panics on error; for tests and fixed
// experiment setups whose parameters are compile-time constants.
func MustCostModel(hw Hardware, model ModelSpec, tp int) *CostModel {
	cm, err := NewCostModel(hw, model, tp)
	if err != nil {
		panic(err)
	}
	return cm
}

// bandwidth is the model-achievable HBM bandwidth across the TP group.
func (c *CostModel) bandwidth() float64 {
	util := c.bandwidthUtil
	if util <= 0 || util > 1 {
		util = 1
	}
	return c.hw.memBandwidth * util * float64(c.tp)
}

// weightLoadTime is the time to stream all weights from HBM once,
// split across the TP group.
func (c *CostModel) weightLoadTime() float64 {
	return c.model.weightBytes() / c.bandwidth()
}

// computeTime is the dense-GEMM time for tokens positions.
func (c *CostModel) computeTime(tokens int) float64 {
	return c.model.flopsPerToken() * float64(tokens) / (c.hw.flops * float64(c.tp))
}

// kvReadTime is the time to stream the attended KV cache.
func (c *CostModel) kvReadTime(kvTokens int) float64 {
	return c.model.kvBytesPerToken() * float64(kvTokens) / c.bandwidth()
}

// launchTime models kernel-launch overhead, optionally amortized by CUDA
// graph replay for repeated shapes. Capture itself costs one un-graphed
// launch sequence (the paper reuses graphs across iterations with the same
// active-request count).
func (c *CostModel) launchTime(shape BatchShape) float64 {
	kernels := float64(c.kernelsPerLayer*c.model.layers + 4)
	plain := kernels * c.hw.launchOverhead
	if !c.UseCUDAGraphs {
		return plain
	}
	if c.graphCache == nil {
		c.graphCache = make(map[graphKey]struct{})
	}
	key := graphKey{tokens: shape.Tokens, seqs: shape.Seqs}
	if _, ok := c.graphCache[key]; ok {
		return c.hw.graphLaunchOverhead * kernels / 16
	}
	c.graphCache[key] = struct{}{}
	return plain
}

// collectiveTime is the tensor-parallel synchronization cost per pass.
func (c *CostModel) collectiveTime() float64 {
	if c.tp <= 1 {
		return 0
	}
	return float64(c.model.layers) * c.allReduceLatency
}

// ForwardLatency returns the modeled wall time of one forward pass with the
// given shape. An empty shape costs zero.
func (c *CostModel) ForwardLatency(shape BatchShape) float64 {
	if shape.Tokens == 0 {
		return 0
	}
	if err := shape.validate(); err != nil {
		panic(err)
	}
	roof := math.Max(c.weightLoadTime(), c.computeTime(shape.Tokens))
	return roof + c.kvReadTime(shape.KVTokens) + c.launchTime(shape) + c.collectiveTime()
}

// RooflineKnee returns the token count at which the compute term equals the
// weight-load term: below this, extra tokens in a forward pass are almost
// free. This is the quantity AdaServe's budget is anchored to.
func (c *CostModel) RooflineKnee() int {
	// weightBytes/BW == 2·P·T/FLOPS  =>  T = FLOPS·bytesPerParam/(2·BW)
	t := c.hw.flops * float64(c.tp) * c.model.bytesPerParam / (2 * c.bandwidth())
	if t < 1 {
		return 1
	}
	return int(t)
}

// BaselineLatency returns the per-token decode latency at batch size 1 with
// context length ctx. The paper uses this (measured near-zero load) as the
// reference for category-1 SLOs (1.2x baseline).
func (c *CostModel) BaselineLatency(ctx int) float64 {
	return c.ForwardLatencyPure(BatchShape{Tokens: 1, Seqs: 1, KVTokens: ctx})
}

// ForwardLatencyPure is ForwardLatency without mutating CUDA-graph cache
// state (always assumes a graph hit when graphs are on). Use for planning
// computations that must not perturb the model's statistics.
func (c *CostModel) ForwardLatencyPure(shape BatchShape) float64 {
	if shape.Tokens == 0 {
		return 0
	}
	roof := math.Max(c.weightLoadTime(), c.computeTime(shape.Tokens))
	kernels := float64(c.kernelsPerLayer*c.model.layers + 4)
	var launch float64
	if c.UseCUDAGraphs {
		launch = c.hw.graphLaunchOverhead * kernels / 16
	} else {
		launch = kernels * c.hw.launchOverhead
	}
	return roof + c.kvReadTime(shape.KVTokens) + launch + c.collectiveTime()
}

// KVCapacityTokens returns how many KV-cache tokens fit in the TP group's
// free memory after weights, with a reserve fraction held back for
// activations and fragmentation.
func (c *CostModel) KVCapacityTokens(reserveFrac float64) int {
	free := c.hw.memCapacity*float64(c.tp) - c.model.weightBytes()
	free *= 1 - reserveFrac
	if free <= 0 {
		return 0
	}
	return int(free / c.model.kvBytesPerToken())
}
