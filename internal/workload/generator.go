package workload

import (
	"fmt"
	"sort"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// GeneratorConfig parameterizes request-stream synthesis.
type GeneratorConfig struct {
	// Seed drives all sampling (categories, lengths, request text seeds).
	Seed uint64
	// Mix is the category distribution for mixed traces.
	Mix Mix
	// BaselineLatency is the model's unloaded per-token decode latency,
	// used to resolve factor-based SLOs (category 1).
	BaselineLatency float64
	// SLOScale scales category 1's SLO factor (Figure 11's x-axis); 0
	// means 1.0 (no scaling: factor stays at its spec value).
	SLOScale float64
}

// Generator synthesizes requests from the DefaultCategories, whose prompt
// and output lengths always fit MaxContext together.
type Generator struct {
	cfg   GeneratorConfig
	specs []CategorySpec
	rng   *mathutil.RNG
	next  int
}

// NewGenerator validates and builds a generator.
func NewGenerator(cfg GeneratorConfig) (*Generator, error) {
	if err := cfg.Mix.validate(); err != nil {
		return nil, err
	}
	if cfg.BaselineLatency <= 0 {
		return nil, fmt.Errorf("workload: baseline latency %g must be positive", cfg.BaselineLatency)
	}
	if cfg.SLOScale == 0 {
		cfg.SLOScale = 1
	}
	if cfg.SLOScale < 0 {
		return nil, fmt.Errorf("workload: negative SLO scale %g", cfg.SLOScale)
	}
	return &Generator{cfg: cfg, specs: DefaultCategories(), rng: mathutil.NewRNG(cfg.Seed)}, nil
}

// slo resolves the SLO for a category, applying SLOScale to category 1.
// Per Figure 11, the scale stretches or tightens the most urgent SLO
// relative to the baseline latency (scale < 1 demands per-token latency
// below the unloaded baseline — only speculation can deliver that).
func (g *Generator) slo(spec CategorySpec) float64 {
	t := spec.TPOT(g.cfg.BaselineLatency)
	if spec.sloFactor > 0 {
		t = spec.sloFactor * g.cfg.SLOScale * g.cfg.BaselineLatency
	}
	return t
}

// MakeAt synthesizes one request of the given category arriving at time t.
func (g *Generator) MakeAt(cat request.Category, t float64) *request.Request {
	var spec CategorySpec
	found := false
	for _, s := range g.specs {
		if s.category == cat {
			spec = s
			found = true
			break
		}
	}
	if !found {
		panic(fmt.Sprintf("workload: no spec for category %v", cat))
	}
	prompt := spec.prompt.Sample(g.rng)
	output := spec.output.Sample(g.rng)
	id := g.next
	g.next++
	seed := mathutil.Hash2(g.cfg.Seed, uint64(id)+0x5151)
	r := request.New(id, cat, g.slo(spec), t, prompt, output, seed)
	r.TTFTSLO = spec.TTFTSLOAbs
	return r
}

// MakeMixedAt synthesizes one request arriving at time t with its category
// sampled from the configured mix: the incremental counterpart of
// FromTimestamps, for open-loop sources that materialize arrivals on the
// fly. Given the same timestamps it consumes the generator's RNG in the
// same order as FromTimestamps, so lazily and eagerly built streams are
// identical.
func (g *Generator) MakeMixedAt(t float64) *request.Request {
	return g.MakeAt(g.sampleCategory(), t)
}

// sampleCategory draws a category from the mix. Float accumulation can
// leave u >= acc even though the mix validates (weights summing to 1±0.001
// need not reach u); the fallback must land on a category the mix actually
// allows, so it scans back to the last positive-weight category rather than
// blindly taking the last index — with a mix like {1, 0, 0} the last index
// has probability zero and must never be emitted.
func (g *Generator) sampleCategory() request.Category {
	u := g.rng.Float64()
	var acc float64
	for i, p := range g.cfg.Mix {
		acc += p
		if u < acc {
			return request.Category(i)
		}
	}
	for i := len(g.cfg.Mix) - 1; i >= 0; i-- {
		if g.cfg.Mix[i] > 0 {
			return request.Category(i)
		}
	}
	return request.Category(len(g.cfg.Mix) - 1)
}

// FromTimestamps builds a mixed-category request stream over the given
// (sorted) arrival timestamps: for each arrival the category is sampled from
// the mix, then lengths from that category's distributions — exactly the
// paper's trace construction.
func (g *Generator) FromTimestamps(ts []float64) []*request.Request {
	reqs := make([]*request.Request, 0, len(ts))
	for _, t := range ts {
		reqs = append(reqs, g.MakeMixedAt(t))
	}
	return reqs
}

// FromCategoryTimestamps builds a request stream from per-category timestamp
// slices (Figure 13's synthetic trace).
func (g *Generator) FromCategoryTimestamps(perCat [][]float64) []*request.Request {
	var reqs []*request.Request
	for ci, ts := range perCat {
		for _, t := range ts {
			reqs = append(reqs, g.MakeAt(request.Category(ci), t))
		}
	}
	sort.SliceStable(reqs, func(i, j int) bool {
		if reqs[i].ArrivalTime != reqs[j].ArrivalTime {
			return reqs[i].ArrivalTime < reqs[j].ArrivalTime
		}
		return reqs[i].ID < reqs[j].ID
	})
	return reqs
}

// Stats summarizes a generated stream for logging and tests.
type Stats struct {
	Requests   int
	MeanPrompt float64
	MeanOutput float64
	MeanRPS    float64
}

// StreamStats computes Stats for a request stream.
func StreamStats(reqs []*request.Request) Stats {
	var st Stats
	st.Requests = len(reqs)
	if len(reqs) == 0 {
		return st
	}
	var prompt, output float64
	minT, maxT := reqs[0].ArrivalTime, reqs[0].ArrivalTime
	for _, r := range reqs {
		prompt += float64(r.PromptLen)
		output += float64(r.MaxNewTokens)
		if r.ArrivalTime < minT {
			minT = r.ArrivalTime
		}
		if r.ArrivalTime > maxT {
			maxT = r.ArrivalTime
		}
	}
	st.MeanPrompt = prompt / float64(len(reqs))
	st.MeanOutput = output / float64(len(reqs))
	if maxT > minT {
		st.MeanRPS = float64(len(reqs)) / (maxT - minT)
	}
	return st
}
