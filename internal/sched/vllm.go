package sched

import (
	"fmt"

	"adaserve/internal/request"
)

// VLLM is the vLLM baseline: continuous batching with prefill-prioritized
// iterations and PagedAttention-style KV management. Every decode iteration
// generates exactly one token per running request, so all batched requests
// experience the same per-token latency — the uniform-service limitation the
// paper's Figure 2 illustrates.
type VLLM struct {
	base
	// PriorityAware enables the "vLLM + Priority" variant of Figure 1:
	// admission prefers urgent categories and decode batches are trimmed to
	// the largest prefix (by priority) whose predicted iteration latency
	// fits the tightest SLO in the batch.
	PriorityAware bool
}

// NewVLLM constructs the baseline.
func NewVLLM(cfg Config) (*VLLM, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &VLLM{base: b}, nil
}

// Name implements System.
func (v *VLLM) Name() string {
	if v.PriorityAware {
		return "vLLM + Priority"
	}
	return "vLLM"
}

// Iterate implements System.
func (v *VLLM) Iterate(now float64) IterationStats {
	v.finish()
	if v.PriorityAware {
		v.admitOrdered(now, func(a, c *request.Request) bool {
			if a.Priority != c.Priority {
				return a.Priority < c.Priority
			}
			if a.ArrivalTime != c.ArrivalTime {
				return a.ArrivalTime < c.ArrivalTime
			}
			return a.ID < c.ID
		})
	} else {
		v.admitFIFO(now)
	}

	// Prefill-prioritized: any waiting prompt runs before decode resumes.
	if st, ok := v.prefillWhole(now); ok {
		return st
	}

	decode := v.pool.DecodingRequests()
	if len(decode) == 0 {
		return IterationStats{Idle: true}
	}
	if v.PriorityAware {
		decode = v.trimByPriority(decode)
	}
	return v.decodeStep(now, decode, nil)
}

// trimByPriority restricts the decode batch when urgent requests are
// present: the most-urgent priority class runs exclusively, and less urgent
// requests join only while the predicted iteration latency keeps a safety
// margin under the tightest SLO. This is the paper's Figure 1 observation:
// priority scheduling protects tight SLOs only by constraining batch
// composition, starving other classes and congesting the system.
func (v *VLLM) trimByPriority(decode []*request.Request) []*request.Request {
	ordered := append([]*request.Request(nil), decode...)
	sortStable(ordered, func(a, c *request.Request) bool {
		if a.Priority != c.Priority {
			return a.Priority < c.Priority
		}
		if a.ArrivalTime != c.ArrivalTime {
			return a.ArrivalTime < c.ArrivalTime
		}
		return a.ID < c.ID
	})
	// Strict class exclusivity: urgent requests preempt all non-urgent
	// decoding (the paper's description of vLLM+Priority). The tight SLO
	// is protected, non-urgent classes starve, and congestion builds — the
	// trade-off Figure 1 documents.
	topPriority := ordered[0].Priority
	best := 0
	for n := 1; n <= len(ordered); n++ {
		if ordered[n-1].Priority != topPriority {
			break
		}
		best = n
	}
	if best < 1 {
		best = 1
	}
	return ordered[:best]
}

func (v *VLLM) String() string { return fmt.Sprintf("%s(batch<=%d)", v.Name(), v.cfg.MaxBatch) }
