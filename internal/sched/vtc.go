package sched

import (
	"adaserve/internal/request"
)

// VTC is the Virtual Token Counter baseline: fair scheduling across service
// classes (here: the request categories) by tracking a weighted count of
// tokens served per class and always serving the most under-served classes
// first. Fairness is orthogonal to SLOs: a class that needs few tokens but
// tight latency gets no preferential latency treatment.
type VTC struct {
	base
	// counters tracks weighted tokens served per category.
	counters [request.NumCategories]float64
}

// NewVTC constructs the baseline.
func NewVTC(cfg Config) (*VTC, error) {
	b, err := newBase(cfg)
	if err != nil {
		return nil, err
	}
	return &VTC{base: b}, nil
}

// vtcWeightIn weights prompt tokens in VTC's counters against output tokens
// (its w_in/w_out ratio).
const vtcWeightIn = 0.5

// Name implements System.
func (v *VTC) Name() string { return "VTC" }

// Iterate implements System.
func (v *VTC) Iterate(now float64) IterationStats {
	v.finish()
	// Admission prefers the most under-served category (lowest counter),
	// the mechanism through which VTC realizes fairness under contention.
	v.admitOrdered(now, func(a, c *request.Request) bool {
		ca, cc := v.counters[a.Category], v.counters[c.Category]
		if ca != cc {
			return ca < cc
		}
		if a.ArrivalTime != c.ArrivalTime {
			return a.ArrivalTime < c.ArrivalTime
		}
		return a.ID < c.ID
	})

	if st, ok := v.prefillWhole(now); ok {
		for _, r := range v.pool.Running() {
			// Count freshly prefilled prompts toward their class.
			if r.Phase == request.Decoding && r.OutputLen() == 0 && r.FirstDecodeTime < 0 {
				v.counters[r.Category] += vtcWeightIn * float64(r.PromptLen)
			}
		}
		return st
	}

	decode := v.pool.DecodingRequests()
	if len(decode) == 0 {
		return IterationStats{Idle: true}
	}
	st := v.decodeStep(now, decode, nil)
	for _, r := range decode {
		// A decoding request is short of MaxNewTokens, so it kept its token.
		v.counters[r.Category]++
	}
	return st
}
