// Package workload generates the paper's evaluation workloads: the three
// application categories of Table 2 with their TPOT SLOs and length
// distributions, mixed-category request streams, and the arrival traces of
// Figures 7 and 13.
package workload

import (
	"fmt"
	"math"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// LengthDist is a clipped log-normal over token counts.
type LengthDist struct {
	// Median is exp(mu) of the underlying normal.
	Median float64
	// Sigma is the log-space standard deviation.
	Sigma float64
	// Min and Max clip the samples.
	Min, Max int
}

// Sample draws one length.
func (l LengthDist) Sample(rng *mathutil.RNG) int {
	v := rng.LogNormal(logOf(l.Median), l.Sigma)
	n := int(v + 0.5)
	return mathutil.ClipInt(n, l.Min, l.Max)
}

func logOf(x float64) float64 {
	if x <= 0 {
		panic(fmt.Sprintf("workload: non-positive median %g", x))
	}
	return math.Log(x)
}

// CategorySpec defines one application category (Table 2).
type CategorySpec struct {
	category request.Category
	// sloFactor, when > 0, sets TPOT SLO = sloFactor × baseline decode
	// latency (category 1: 1.2× baseline, per MLPerf interactive).
	sloFactor float64
	// sloAbs, when > 0, sets an absolute TPOT SLO in seconds.
	sloAbs float64
	// TTFTSLOAbs, when > 0, sets an absolute time-to-first-token SLO in
	// seconds (arrival to first committed output token). Zero leaves the
	// category without a TTFT SLO.
	TTFTSLOAbs float64
	// prompt and output are token-length distributions matched to the
	// dataset's statistics.
	prompt LengthDist
	output LengthDist
}

// TPOT resolves the category's SLO given the model's baseline per-token
// decode latency.
func (c CategorySpec) TPOT(baseline float64) float64 {
	if c.sloFactor > 0 {
		return c.sloFactor * baseline
	}
	return c.sloAbs
}

// MaxContext is the context window in tokens every request's prompt plus
// output fits: DefaultCategories' length limits stay within it, multi-turn
// sessions end before a turn would exceed it, and compiled traces clip to
// it.
const MaxContext = 8192

// DefaultCategories returns the Table 2 categories:
//
//	Cat 1  coding copilot   SLO = 1.2 × baseline   (HumanEval-like)
//	Cat 2  chatbot          SLO = 50 ms/token      (Alpaca-like)
//	Cat 3  summarization    SLO = 150 ms/token     (CNN/DailyMail-like)
//
// Length distributions are matched to the public statistics of the
// referenced datasets (HumanEval prompts ≈ 150–450 tokens; Alpaca turns are
// short; CNN/DailyMail articles run to a few thousand tokens), which is the
// only property of the datasets the serving layer observes.
//
// TTFT SLOs follow the interactive targets multi-SLO serving work uses
// (MLPerf-interactive-style: sub-second first token for interactive
// categories, a few seconds for batch-style summarization whose prompts are
// an order of magnitude longer).
func DefaultCategories() []CategorySpec {
	return []CategorySpec{
		{ // coding copilot, HumanEval
			category: request.Coding, sloFactor: 1.2, TTFTSLOAbs: 1.0,
			prompt: LengthDist{Median: 160, Sigma: 0.45, Min: 32, Max: 1024},
			output: LengthDist{Median: 90, Sigma: 0.50, Min: 16, Max: 512},
		},
		{ // chatbot, Alpaca
			category: request.Chat, sloAbs: 0.050, TTFTSLOAbs: 1.0,
			prompt: LengthDist{Median: 60, Sigma: 0.70, Min: 16, Max: 1024},
			output: LengthDist{Median: 80, Sigma: 0.60, Min: 16, Max: 512},
		},
		{ // summarization, CNN/DailyMail
			category: request.Summarization, sloAbs: 0.150, TTFTSLOAbs: 4.0,
			prompt: LengthDist{Median: 700, Sigma: 0.40, Min: 256, Max: 4096},
			output: LengthDist{Median: 80, Sigma: 0.35, Min: 32, Max: 512},
		},
	}
}

// Mix is a probability distribution over the categories.
type Mix [request.NumCategories]float64

// validate checks the mix sums to ~1.
func (m Mix) validate() error {
	var s float64
	for _, p := range m {
		if p < 0 {
			return fmt.Errorf("workload: negative mix weight %g", p)
		}
		s += p
	}
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("workload: mix sums to %g", s)
	}
	return nil
}

// DefaultMix is the end-to-end evaluation mix: 60% category 1, 20% each of
// categories 2 and 3 ("a peak load scenario for latency-critical tasks").
var DefaultMix = Mix{0.6, 0.2, 0.2}

// UrgentMix returns the Figure 10 mix: urgent fraction of category-1
// requests, remainder split evenly between categories 2 and 3.
func UrgentMix(urgent float64) Mix {
	rest := (1 - urgent) / 2
	return Mix{urgent, rest, rest}
}
