package sched

import (
	"adaserve/internal/engine"
)

// Sarathi is the Sarathi-Serve baseline: chunked prefill co-batched with
// decode under a fixed per-iteration token budget. Long prompts are split
// into chunks so decoding requests keep making progress instead of stalling
// behind monolithic prefill passes, trading slightly higher (but uniform)
// per-token latency for the absence of prefill latency spikes.
type Sarathi struct {
	base
}

// sarathiTokenBudget is Sarathi's per-iteration token budget shared by
// decode tokens and prefill chunks (its "chunk size"): 256, the paper's
// Sarathi configuration ballpark for A100-class hardware.
const sarathiTokenBudget = 256

// NewSarathi constructs the baseline.
func NewSarathi(cfg Config) (*Sarathi, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &Sarathi{base: b}, nil
}

// Name implements System.
func (s *Sarathi) Name() string { return "Sarathi-Serve" }

// Iterate implements System.
func (s *Sarathi) Iterate(now float64) IterationStats {
	s.finish()
	s.admitFIFO(now)

	decode := s.pool.DecodingRequests()
	budget := sarathiTokenBudget - len(decode)
	if budget < 0 {
		budget = 0
	}
	var prefill []engine.PrefillItem
	for _, r := range s.pool.PrefillingRequests() {
		if budget <= 0 {
			break
		}
		chunk := r.RemainingPrefill()
		if chunk > budget {
			chunk = budget
		}
		prefill = append(prefill, engine.PrefillItem{Req: r, Chunk: chunk})
		budget -= chunk
	}
	if len(decode) == 0 && len(prefill) == 0 {
		return IterationStats{Idle: true}
	}
	return s.decodeStep(now, decode, prefill)
}
