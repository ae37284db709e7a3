package gpu

import (
	"fmt"
	"sort"
)

// Profile is a fitted piecewise-linear latency model
// lat(T) ≈ Base + slope·max(0, T − Knee), obtained by "profiling" a cost
// model at a sweep of token counts. AdaServe is described as using
// profiling-based roofline models rather than datasheet numbers; this type
// plays that role: schedulers consume a Profile, never the analytic model
// directly, so a real deployment could swap in measured numbers.
type Profile struct {
	// Base is the flat-region iteration latency in seconds.
	Base float64
	// slope is the marginal seconds per extra token past the knee.
	slope float64
	// Knee is the token count where latency departs the flat region.
	Knee int
}

// profilePoint is one profiling sample.
type profilePoint struct {
	tokens  int
	latency float64
}

// ProfileCostModel sweeps the cost model across token counts (with kvPerTok
// context tokens of KV per batched token, approximating steady state) and
// fits the piecewise-linear roofline.
func ProfileCostModel(cm *CostModel, maxTokens, kvPerTok int) (*Profile, error) {
	if maxTokens < 8 {
		return nil, fmt.Errorf("gpu: profile sweep needs maxTokens >= 8, got %d", maxTokens)
	}
	var pts []profilePoint
	for t := 1; t <= maxTokens; t = nextSweepPoint(t) {
		lat := cm.ForwardLatencyPure(BatchShape{Tokens: t, Seqs: t, KVTokens: t * kvPerTok})
		pts = append(pts, profilePoint{tokens: t, latency: lat})
	}
	return fitProfile(pts), nil
}

// nextSweepPoint yields a geometric-ish sweep: 1,2,3,...,16 then +12.5%.
func nextSweepPoint(t int) int {
	if t < 16 {
		return t + 1
	}
	n := t + t/8
	if n == t {
		n = t + 1
	}
	return n
}

// fitProfile locates the knee as the sample where latency first exceeds the
// flat region by 5%, then least-squares fits the slope on samples past it.
func fitProfile(pts []profilePoint) *Profile {
	sort.Slice(pts, func(i, j int) bool { return pts[i].tokens < pts[j].tokens })
	base := pts[0].latency
	knee := pts[len(pts)-1].tokens
	for _, p := range pts {
		if p.latency > base*1.05 {
			knee = p.tokens
			break
		}
	}
	// Least-squares on the linear region.
	var sx, sy, sxx, sxy, n float64
	for _, p := range pts {
		if p.tokens < knee {
			continue
		}
		x, y := float64(p.tokens), p.latency
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	slope := 0.0
	if n >= 2 && sxx*n-sx*sx != 0 {
		slope = (n*sxy - sx*sy) / (n*sxx - sx*sx)
		if slope < 0 {
			slope = 0
		}
	}
	return &Profile{Base: base, slope: slope, Knee: knee}
}

// Latency evaluates the fitted model at a token count.
func (p *Profile) Latency(tokens int) float64 {
	if tokens <= 0 {
		return 0
	}
	extra := float64(tokens - p.Knee)
	if extra < 0 {
		extra = 0
	}
	return p.Base + p.slope*extra
}

// BudgetFor inverts the fitted model: the max token count whose predicted
// latency stays within target. Returns at least 1.
func (p *Profile) BudgetFor(target float64) int {
	if target <= p.Base {
		return 1
	}
	if p.slope <= 0 {
		return p.Knee
	}
	b := p.Knee + int((target-p.Base)/p.slope)
	if b < 1 {
		return 1
	}
	return b
}
