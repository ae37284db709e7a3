// Package metrics computes the paper's evaluation metrics from finished
// requests: SLO attainment, goodput, violation counts, mean accepted tokens
// per verification step, TPOT percentiles, and the Figure 15 latency
// breakdown.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"adaserve/internal/obs/hist"
	"adaserve/internal/request"
)

// Breakdown splits a run's serving time by phase (Figure 15).
type Breakdown struct {
	// Scheduling is CPU time spent in selection/scheduling.
	Scheduling float64
	// Speculation is GPU time in draft-model decoding.
	Speculation float64
	// Verification is GPU time in target verification/decode.
	Verification float64
	// Prefill is GPU time prefilling prompts.
	Prefill float64
}

// Total returns the summed serving time.
func (b Breakdown) Total() float64 {
	return b.Scheduling + b.Speculation + b.Verification + b.Prefill
}

// SchedulingShare returns scheduling's fraction of total serving time.
func (b Breakdown) SchedulingShare() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Scheduling / t
}

// CategoryStats summarizes one request category.
type CategoryStats struct {
	Requests int
	attained int
	// MeanTPOT is the average per-token latency across requests, seconds.
	MeanTPOT float64
	// TPOT is the class's streaming TPOT histogram over finished requests —
	// fixed-size, so per-class metric memory is independent of request count.
	TPOT *hist.Histogram
}

// Attainment returns the category's SLO attainment fraction.
func (c CategoryStats) Attainment() float64 {
	if c.Requests == 0 {
		return 0
	}
	return float64(c.attained) / float64(c.Requests)
}

// Summary aggregates a full run.
type Summary struct {
	System   string
	Requests int
	Finished int
	Attained int
	// TTFTAttained counts requests that met their TTFT SLO (requests
	// without one trivially attain, so on TPOT-only traces this equals
	// Requests).
	TTFTAttained int

	// duration is the wall-clock span from first arrival to last completion.
	duration float64
	// Goodput is output tokens/second counting only SLO-attaining requests.
	Goodput float64
	// Throughput is output tokens/second counting all requests.
	Throughput float64
	// MeanAcceptedPerStep is committed tokens per verification step per
	// request (Figure 12's metric).
	MeanAcceptedPerStep float64
	// MeanTTFT is the average time-to-first-token; MaxTTFT the worst case
	// over finished requests (the tail bound overload admission protects).
	MeanTTFT float64
	MaxTTFT  float64
	// MeanTPOT is the average per-request TPOT over finished requests.
	MeanTPOT float64
	// TPOT and TTFT are bounded-memory streaming histograms over finished
	// requests (per-request average TPOT; TTFT where measured). They replace
	// the retained per-request latency slices: a Summary's memory is a small
	// constant regardless of how many requests the run served.
	TPOT *hist.Histogram
	TTFT *hist.Histogram
	// TPOTTail and TTFTTail are the histograms' percentile digests, computed
	// once at Summarize time; the percentile accessors read them.
	TPOTTail hist.Digest
	TTFTTail hist.Digest

	PerCategory map[request.Category]*CategoryStats
	Breakdown   Breakdown
}

// Attainment returns the overall SLO attainment fraction.
func (s *Summary) Attainment() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Attained) / float64(s.Requests)
}

// TTFTAttainment returns the fraction of requests meeting their TTFT SLO.
func (s *Summary) TTFTAttainment() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.TTFTAttained) / float64(s.Requests)
}

// P50TPOT returns the median per-request average TPOT.
func (s *Summary) P50TPOT() float64 { return s.TPOTTail.P50 }

// P99TPOT returns the 99th-percentile per-request average TPOT.
func (s *Summary) P99TPOT() float64 { return s.TPOTTail.P99 }

// P999TPOT returns the 99.9th-percentile per-request average TPOT.
func (s *Summary) P999TPOT() float64 { return s.TPOTTail.P999 }

// MaxTPOT returns the worst per-request average TPOT of the run (exact).
func (s *Summary) MaxTPOT() float64 { return s.TPOTTail.Max }

// Summarize computes a Summary over all requests of a run. done should
// contain every generated request (finished or not); breakdown comes from
// the scheduler's accounting.
func Summarize(system string, reqs []*request.Request, breakdown Breakdown) *Summary {
	s := &Summary{
		System:      system,
		Requests:    len(reqs),
		PerCategory: make(map[request.Category]*CategoryStats),
		Breakdown:   breakdown,
	}
	s.TPOT = hist.New()
	s.TTFT = hist.New()
	if len(reqs) == 0 {
		return s
	}
	firstArrival := reqs[0].ArrivalTime
	lastDone := 0.0
	var totalSteps, totalAccepted int
	for _, r := range reqs {
		if r.ArrivalTime < firstArrival {
			firstArrival = r.ArrivalTime
		}
		cs := s.PerCategory[r.Category]
		if cs == nil {
			cs = &CategoryStats{TPOT: hist.New()}
			s.PerCategory[r.Category] = cs
		}
		cs.Requests++
		if r.AttainedTTFT() {
			s.TTFTAttained++
		}
		if r.Phase != request.Done {
			continue
		}
		s.Finished++
		if r.DoneTime > lastDone {
			lastDone = r.DoneTime
		}
		tpot := r.AvgTPOT(r.DoneTime)
		s.TPOT.Observe(tpot)
		cs.TPOT.Observe(tpot)
		if t := r.TTFT(); t >= 0 {
			s.TTFT.Observe(t)
			if t > s.MaxTTFT {
				s.MaxTTFT = t
			}
		}
		totalSteps += r.VerifySteps
		totalAccepted += r.AcceptedTokens
		if r.AttainedSLO() {
			s.Attained++
			cs.attained++
		}
	}
	s.duration = lastDone - firstArrival
	if s.duration > 0 {
		var goodTokens, allTokens int
		for _, r := range reqs {
			if r.Phase != request.Done {
				continue
			}
			allTokens += r.OutputLen()
			if r.AttainedSLO() {
				goodTokens += r.OutputLen()
			}
		}
		s.Goodput = float64(goodTokens) / s.duration
		s.Throughput = float64(allTokens) / s.duration
	}
	if totalSteps > 0 {
		s.MeanAcceptedPerStep = float64(totalAccepted) / float64(totalSteps)
	}
	// Means divide running sums accumulated in the same order the retained
	// slices used to be appended, so these values are bit-identical to the
	// slice-backed implementation; percentiles come from the histograms.
	s.MeanTTFT = s.TTFT.Mean()
	s.MeanTPOT = s.TPOT.Mean()
	s.TPOTTail = s.TPOT.Digest()
	s.TTFTTail = s.TTFT.Digest()
	for _, cs := range s.PerCategory {
		cs.MeanTPOT = cs.TPOT.Mean()
	}
	return s
}

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d reqs, attainment %.1f%%, goodput %.1f tok/s, mean acc %.2f",
		s.System, s.Requests, 100*s.Attainment(), s.Goodput, s.MeanAcceptedPerStep)
	cats := make([]request.Category, 0, len(s.PerCategory))
	for c := range s.PerCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	for _, c := range cats {
		cs := s.PerCategory[c]
		fmt.Fprintf(&b, "\n  %-14s %4d reqs, attain %.1f%%, mean TPOT %.1f ms",
			c, cs.Requests, 100*cs.Attainment(), 1e3*cs.MeanTPOT)
	}
	return b.String()
}
