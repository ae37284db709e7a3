package sched

import (
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// replay is a minimal in-package trace driver (the real driver lives in
// internal/serve, which imports sched and therefore cannot be used from
// these white-box tests): it delivers arrivals at iteration
// boundaries and advances the clock by each iteration's reported duration,
// optionally invoking check after every iteration.
func replay(t *testing.T, sys System, reqs []*request.Request, maxIters int, check func(now float64)) float64 {
	t.Helper()
	ordered, err := request.OrderForReplay(reqs)
	if err != nil {
		t.Fatal(err)
	}
	pool := sys.Pool()
	now := 0.0
	next := 0
	for iter := 0; iter < maxIters; iter++ {
		for next < len(ordered) && ordered[next].ArrivalTime <= now {
			pool.Enqueue(ordered[next])
			next++
		}
		if pool.NumWaiting() == 0 && pool.NumRunning() == 0 {
			if next >= len(ordered) {
				return now
			}
			now = ordered[next].ArrivalTime
			continue
		}
		st := sys.Iterate(now)
		if st.Idle {
			if pool.NumWaiting() == 0 && pool.NumRunning() == 0 {
				continue
			}
			if next < len(ordered) {
				now = ordered[next].ArrivalTime
				continue
			}
			t.Fatalf("%s deadlocked with %d waiting / %d running",
				sys.Name(), pool.NumWaiting(), pool.NumRunning())
		}
		if st.Elapsed <= 0 {
			t.Fatalf("%s reported non-positive elapsed %g", sys.Name(), st.Elapsed)
		}
		now += st.Elapsed
		if check != nil {
			check(now)
		}
	}
	t.Fatalf("%s did not drain in %d iterations", sys.Name(), maxIters)
	return now
}

// mixedSLOTrace synthesizes a short three-category trace through the real
// workload generator, so the baselines face the paper's SLO mix.
func mixedSLOTrace(t *testing.T, n int, rps float64, seed uint64) []*request.Request {
	t.Helper()
	gen, err := workload.NewGenerator(workload.GeneratorConfig{
		Seed:            seed,
		Mix:             workload.DefaultMix,
		BaselineLatency: 0.032, // Llama-70B-on-4xA100 ballpark
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := make([]float64, n)
	rng := mathutil.NewRNG(seed + 99)
	now := 0.0
	for i := range ts {
		now += rng.ExpFloat64() / rps
		ts[i] = now
	}
	return gen.FromTimestamps(ts)
}

// baselineBuilders are the four baselines this file targets directly.
func baselineBuilders() map[string]func(Config) (System, error) {
	return map[string]func(Config) (System, error){
		"FastServe":     func(c Config) (System, error) { return NewFastServe(c) },
		"Sarathi-Serve": func(c Config) (System, error) { return NewSarathi(c) },
		"VTC":           func(c Config) (System, error) { return NewVTC(c) },
		"vLLM-Spec":     func(c Config) (System, error) { return NewVLLMSpec(c, 4) },
	}
}

// TestBaselineDeterminismAtFixedSeed replays the identical trace through two
// independently built instances of each baseline and requires bit-identical
// request outcomes: same first-token and completion times, same verification
// steps, committed tokens and preemptions, and — for the speculative
// baseline, the one that reads token identity — the same decoding context.
func TestBaselineDeterminismAtFixedSeed(t *testing.T) {
	for name, build := range baselineBuilders() {
		t.Run(name, func(t *testing.T) {
			trace := mixedSLOTrace(t, 20, 8, 7)
			type outcome struct {
				firstToken, done          float64
				steps, accepted, preempts int
				output                    int
				ctx                       lm.Context
			}
			run := func() []outcome {
				sys, err := build(testConfig(t))
				if err != nil {
					t.Fatal(err)
				}
				counted := countPreemptions(sys)
				reqs := request.CloneAll(trace)
				replay(t, counted, reqs, 20000, nil)
				out := make([]outcome, len(reqs))
				for i, r := range reqs {
					out[i] = outcome{
						firstToken: r.FirstTokenTime, done: r.DoneTime,
						steps: r.VerifySteps, accepted: r.AcceptedTokens, preempts: counted.counts[r.ID],
						output: r.OutputLen(), ctx: r.Ctx,
					}
				}
				return out
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Fatal("two runs at the same seed diverged")
			}
		})
	}
}

// TestBaselineAdmissionInvariants drives every baseline under a tight batch
// cap and checks, at every iteration boundary: the running set never exceeds
// MaxBatch, every running request holds a KV allocation, and every retired
// request has released it.
func TestBaselineAdmissionInvariants(t *testing.T) {
	for name, build := range baselineBuilders() {
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(t)
			cfg.MaxBatch = 3
			sys, err := build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reqs := request.CloneAll(mixedSLOTrace(t, 16, 20, 3))
			replay(t, sys, reqs, 20000, func(now float64) {
				if n := sys.Pool().NumRunning(); n > cfg.MaxBatch {
					t.Fatalf("running %d exceeds MaxBatch %d", n, cfg.MaxBatch)
				}
				for _, r := range sys.Pool().Running() {
					if !cfg.KV.Has(r.ID) {
						t.Fatalf("running request %d has no KV allocation", r.ID)
					}
				}
				for _, r := range sys.Pool().Done() {
					if cfg.KV.Has(r.ID) {
						t.Fatalf("done request %d still holds KV", r.ID)
					}
				}
			})
			if len(sys.Pool().Done()) != len(reqs) {
				t.Fatalf("%d of %d done", len(sys.Pool().Done()), len(reqs))
			}
		})
	}
}

// TestFastServePreemptedRequestsFinish floods FastServe past its decode cap:
// the MLFQ must preempt at iteration granularity (some decoding request sits
// out an iteration) yet every request must still complete — preemption may
// never strand work. Admission itself is bounded by MaxBatch, so the decode
// cap is tightened after everyone is admitted (modeling a capacity
// reduction), the scenario where iteration-granularity preemption binds.
func TestFastServePreemptedRequestsFinish(t *testing.T) {
	sys, err := NewFastServe(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []*request.Request
	for i := 0; i < 6; i++ {
		reqs = append(reqs, request.New(i+1, request.Chat, 0.05, 0, 48, 24, uint64(i)*31+1))
	}
	for _, r := range reqs {
		sys.Pool().Enqueue(r)
	}
	st := sys.Iterate(0) // admit + prefill everyone under the default cap
	sys.cfg.MaxBatch = 2
	now := st.Elapsed
	counted := countPreemptions(sys)
	for iter := 0; ; iter++ {
		st := counted.Iterate(now)
		if st.Idle {
			break
		}
		now += st.Elapsed
		if iter > 20000 {
			t.Fatal("did not drain")
		}
	}
	for _, r := range reqs {
		if r.Phase != request.Done || r.OutputLen() != r.MaxNewTokens {
			t.Fatalf("request %d stranded: phase %s, %d/%d tokens", r.ID, r.Phase, r.OutputLen(), r.MaxNewTokens)
		}
	}
	if counted.total() == 0 {
		t.Fatal("cap of 2 with 6 decoding requests never preempted")
	}
}

// TestVTCCountersMonotone pins VTC's fairness bookkeeping: per-category
// counters never decrease, and after a mixed run every category that
// received service has a positive counter.
func TestVTCCountersMonotone(t *testing.T) {
	sys, err := NewVTC(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	reqs := request.CloneAll(mixedSLOTrace(t, 15, 10, 5))
	var last [request.NumCategories]float64
	replay(t, sys, reqs, 20000, func(now float64) {
		for c := 0; c < request.NumCategories; c++ {
			got := sys.counters[request.Category(c)]
			if got < last[c] {
				t.Fatalf("category %d counter decreased: %g -> %g", c, last[c], got)
			}
			last[c] = got
		}
	})
	for c := 0; c < request.NumCategories; c++ {
		served := false
		for _, r := range reqs {
			if r.Category == request.Category(c) && r.OutputLen() > 0 {
				served = true
			}
		}
		if served && sys.counters[request.Category(c)] <= 0 {
			t.Fatalf("category %d served but counter is %g", c, sys.counters[request.Category(c)])
		}
	}
}

// TestVLLMSpecCommitBound pins static speculation's structural bound: one
// verification pass commits at most K+1 tokens per request (K accepted
// drafts plus the bonus/correction token).
func TestVLLMSpecCommitBound(t *testing.T) {
	const k = 4
	sys, err := NewVLLMSpec(testConfig(t), k)
	if err != nil {
		t.Fatal(err)
	}
	reqs := request.CloneAll(mixedSLOTrace(t, 8, 15, 11))
	prev := make(map[int]int)
	replay(t, sys, reqs, 20000, func(now float64) {
		for _, r := range reqs {
			if got := r.OutputLen() - prev[r.ID]; got > k+1 {
				t.Fatalf("request %d committed %d tokens in one iteration, above k+1=%d", r.ID, got, k+1)
			}
			prev[r.ID] = r.OutputLen()
		}
	})
}

// TestSarathiIterationTokenBudget checks Sarathi's defining invariant across
// a full mixed run: no iteration processes more than TokenBudget tokens
// (decode tokens plus prefill chunks), except the degenerate
// one-oversized-prompt case the budget explicitly admits.
func TestSarathiIterationTokenBudget(t *testing.T) {
	cfg := testConfig(t)
	sys, err := NewSarathi(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := request.CloneAll(mixedSLOTrace(t, 12, 12, 9))
	prevOut := make(map[int]int)
	prevPre := make(map[int]int)
	replay(t, sys, reqs, 20000, func(now float64) {
		tokens := 0
		for _, r := range reqs {
			tokens += r.OutputLen() - prevOut[r.ID]
			tokens += r.PrefillDone - prevPre[r.ID]
			prevOut[r.ID] = r.OutputLen()
			prevPre[r.ID] = r.PrefillDone
		}
		if tokens > sarathiTokenBudget {
			t.Fatalf("iteration processed %d tokens, budget %d", tokens, sarathiTokenBudget)
		}
	})
}

// TestBaselineMixedSLOAttainment is the per-baseline sanity check: at an
// easy load every baseline finishes the whole mixed-SLO trace and attains a
// sane share of SLOs — and the relaxed summarization SLO (150 ms) is never
// the class that suffers most under uniform batching.
func TestBaselineMixedSLOAttainment(t *testing.T) {
	for name, build := range baselineBuilders() {
		t.Run(name, func(t *testing.T) {
			sys, err := build(testConfig(t))
			if err != nil {
				t.Fatal(err)
			}
			reqs := request.CloneAll(mixedSLOTrace(t, 24, 2, 13))
			replay(t, sys, reqs, 40000, nil)
			attained, total := 0, 0
			summAttained, summ := 0, 0
			for _, r := range reqs {
				total++
				if r.AttainedSLO() {
					attained++
				}
				if r.Category == request.Summarization {
					summ++
					if r.AttainedSLO() {
						summAttained++
					}
				}
			}
			if total != 24 {
				t.Fatalf("trace lost requests: %d", total)
			}
			frac := float64(attained) / float64(total)
			if frac < 0.5 {
				t.Fatalf("%s attained only %.0f%% at trivial load", name, 100*frac)
			}
			if summ > 0 && summAttained == 0 {
				t.Fatalf("%s violated every relaxed-SLO request at trivial load", name)
			}
		})
	}
}
