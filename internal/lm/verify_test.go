package lm

import (
	"math"
	"testing"

	"adaserve/internal/mathutil"
)

func newPair(t *testing.T, alpha float64) (*SyntheticLM, *DraftLM) {
	t.Helper()
	target := MustSyntheticLM("target", 1, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM("draft", target, alpha, 2)
	return target, draft
}

func TestRuleString(t *testing.T) {
	if RuleSampleMatch.String() != "sample-match" ||
		RuleGreedy.String() != "greedy" ||
		RuleRejection.String() != "rejection" {
		t.Fatal("rule names wrong")
	}
	if VerifyRule(99).String() == "" {
		t.Fatal("unknown rule should still render")
	}
}

func TestGreedyRuleAcceptsArgmax(t *testing.T) {
	target, draft := newPair(t, 1.0)
	v := NewVerifier(target, draft, RuleGreedy, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 5}
	top := target.Dist(ctx).Argmax()
	idx, _ := v.AcceptAmong(ctx, []Branch{{Token: top}})
	if idx != 0 {
		t.Fatal("greedy rule rejected the argmax")
	}
	idx, corr := v.AcceptAmong(ctx, []Branch{{Token: top + 1}})
	if idx != -1 || corr != top {
		t.Fatalf("greedy rule should reject non-argmax and correct to argmax; got idx=%d corr=%d", idx, corr)
	}
}

func TestSampleMatchAcceptanceIsCalibrated(t *testing.T) {
	// The acceptance probability of a branch must equal the target's
	// probability of that token — the calibration property that makes the
	// draft's f(v) estimates meaningful (paper Eq. 7).
	target, draft := newPair(t, 1.0)
	v := NewVerifier(target, draft, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 9}
	p := target.Dist(ctx)
	branch := p.Entries[0]
	accepted := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if idx, _ := v.AcceptAmong(ctx, []Branch{{Token: branch.Token}}); idx == 0 {
			accepted++
		}
	}
	got := float64(accepted) / n
	if math.Abs(got-branch.Prob) > 0.01 {
		t.Fatalf("acceptance rate %.3f, want p(token) = %.3f", got, branch.Prob)
	}
}

func TestSampleMatchMultiBranchCoverage(t *testing.T) {
	// With all candidate tokens as branches, acceptance covers 1 − tail.
	target, draft := newPair(t, 1.0)
	v := NewVerifier(target, draft, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 13}
	p := target.Dist(ctx)
	branches := make([]Branch, len(p.Entries))
	for i, e := range p.Entries {
		branches[i] = Branch{Token: e.Token}
	}
	accepted := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if idx, _ := v.AcceptAmong(ctx, branches); idx >= 0 {
			accepted++
		}
	}
	got := float64(accepted) / n
	want := 1 - p.Tail
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("full-branch acceptance %.3f, want %.3f", got, want)
	}
}

func TestSampleMatchCorrectionDistribution(t *testing.T) {
	// The correction token is a true sample from p: over many rejections
	// with no branches, frequencies track the distribution.
	target, draft := newPair(t, 1.0)
	v := NewVerifier(target, draft, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 17}
	p := target.Dist(ctx)
	counts := make(map[Token]int)
	const n = 100000
	for i := 0; i < n; i++ {
		_, corr := v.AcceptAmong(ctx, nil)
		counts[corr]++
	}
	top := p.Entries[0]
	got := float64(counts[top.Token]) / n
	if math.Abs(got-top.Prob) > 0.01 {
		t.Fatalf("correction emitted top token %.3f of the time, want %.3f", got, top.Prob)
	}
}

func TestRejectionRuleLosslessOnPerfectDraft(t *testing.T) {
	// With q == p, rejection sampling accepts the first branch whenever it
	// carries positive residual mass (min(1, p/q) = 1).
	target, draft := newPair(t, 1.0)
	v := NewVerifier(target, draft, RuleRejection, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 21}
	top := target.Dist(ctx).Argmax()
	for i := 0; i < 100; i++ {
		idx, _ := v.AcceptAmong(ctx, []Branch{{Token: top}})
		if idx != 0 {
			t.Fatal("rejection rule with q=p should always accept the proposal")
		}
	}
}

func TestRejectionRuleRejectsOverconfidentDraft(t *testing.T) {
	// A draft token with q >> p must be rejected some of the time.
	target, _ := newPair(t, 1.0)
	draft := MustDraftLM("bad", target, 0.0, 99) // always mistaken
	v := NewVerifier(target, draft, RuleRejection, mathutil.NewRNG(1))
	rejected := 0
	const n = 2000
	for i := uint64(0); i < n; i++ {
		ctx := Context{ReqSeed: i}
		wrongTop := draft.Dist(ctx).Argmax()
		if wrongTop == target.Dist(ctx).Argmax() {
			continue // swap was a no-op for this context
		}
		if idx, _ := v.AcceptAmong(ctx, []Branch{{Token: wrongTop}}); idx < 0 {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("overconfident wrong drafts were never rejected")
	}
}

// TestRejectionRuleCachedMatchesUncached pins the Dist lifetime contract
// where it is tightest: acceptRejection holds the target's distribution
// across the draft's Dist call, and with 1-slot caches every new context
// evicts. Cached and uncached verifiers must decide identically.
func TestRejectionRuleCachedMatchesUncached(t *testing.T) {
	run := func(cacheSize int) []int {
		target := MustSyntheticLM("target", 1, 4096, 16, 3.2, 0.02)
		draft := MustDraftLM("draft", target, 0.6, 2)
		target.SetDistCacheSize(cacheSize)
		draft.SetDistCacheSize(cacheSize)
		v := NewVerifier(target, draft, RuleRejection, mathutil.NewRNG(31))
		out := make([]int, 0, 1200)
		walkContexts(200, func(ctx Context) {
			top := draft.Dist(ctx).TopK(3)
			branches := make([]Branch, len(top))
			for i, e := range top {
				branches[i] = Branch{Token: e.Token}
			}
			// Evict both caches' only slot, so that inside AcceptAmong the
			// target misses and then the draft misses while p is held.
			_ = draft.Dist(ctx.Extend(4095))
			idx, corr := v.AcceptAmong(ctx, branches)
			out = append(out, idx, int(corr))
		})
		return out
	}
	cached, plain := run(1), run(0)
	if len(cached) != len(plain) {
		t.Fatalf("decision counts differ: %d vs %d", len(cached), len(plain))
	}
	for i := range cached {
		if cached[i] != plain[i] {
			t.Fatalf("cached and uncached rejection verification diverge at %d", i)
		}
	}
}

// TestResidualSampleAvoidsDoubleCounting checks the rejection rule's
// residual after one candidate and one tail token are rejected: the rejected
// tail token's share leaves the tail (total mass = 1 − rejected mass), a
// tail draw never lands on an explicit token, and every token is sampled at
// its normalized residual probability.
func TestResidualSampleAvoidsDoubleCounting(t *testing.T) {
	// Large tail and tiny vocab make tail hits and collisions frequent.
	m := MustSyntheticLM("m", 1, 32, 8, 1.0, 0.4)
	d := m.Dist(Context{ReqSeed: 2})
	cand := make(map[Token]bool, len(d.Entries))
	for _, e := range d.Entries {
		cand[e.Token] = true
	}
	var tailTok Token
	for cand[tailTok] {
		tailTok++
	}
	share := d.Tail / float64(d.Vocab-len(d.Entries))
	c := d.Entries[1]

	r := newResidual(d)
	r.subtract(c.Token, c.Prob)  // candidate fully rejected: residual 0
	r.subtract(tailTok, share/2) // tail token half rejected
	wantTotal := 1 - c.Prob - share/2
	if math.Abs(r.total-wantTotal) > 1e-12 {
		t.Fatalf("residual total %.6f, want %.6f (tail share counted twice?)", r.total, wantTotal)
	}

	want := make(map[Token]float64, d.Vocab)
	for tok := Token(0); tok < Token(d.Vocab); tok++ {
		want[tok] = share / wantTotal
	}
	for _, e := range d.Entries {
		want[e.Token] = e.Prob / wantTotal
	}
	want[c.Token] = 0
	want[tailTok] = share / 2 / wantTotal

	rng := mathutil.NewRNG(77)
	counts := make(map[Token]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[r.sample(rng, d.Argmax())]++
	}
	if counts[c.Token] != 0 {
		t.Fatalf("fully rejected token %d sampled %d times", c.Token, counts[c.Token])
	}
	for tok, p := range want {
		if got := float64(counts[tok]) / n; math.Abs(got-p) > 0.01 {
			t.Fatalf("token %d sampled %.4f, want %.4f", tok, got, p)
		}
	}
}

func TestVerifierDeterministicGivenSeed(t *testing.T) {
	target, draft := newPair(t, 0.8)
	run := func() []int {
		v := NewVerifier(target, draft, RuleSampleMatch, mathutil.NewRNG(55))
		out := make([]int, 0, 100)
		for i := uint64(0); i < 100; i++ {
			ctx := Context{ReqSeed: i}
			top := draft.Dist(ctx).Argmax()
			idx, _ := v.AcceptAmong(ctx, []Branch{{Token: top}})
			out = append(out, idx)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("verification not reproducible at step %d", i)
		}
	}
}

func TestChainAcceptanceBand(t *testing.T) {
	// End-to-end acceptance calibration: a greedy draft chain of depth 6
	// should land in the per-level acceptance band the experiments assume
	// (per-level ~0.6-0.8 given alpha=0.88 and the sharp target).
	target, draft := newPair(t, 0.88)
	v := NewVerifier(target, draft, RuleSampleMatch, mathutil.NewRNG(7))
	var totalAccepted, chains int
	for i := uint64(0); i < 500; i++ {
		ctx := Context{ReqSeed: i}
		cur := ctx
		accepted := 0
		for depth := 0; depth < 6; depth++ {
			tok := draft.Dist(cur).Argmax()
			idx, _ := v.AcceptAmong(cur, []Branch{{Token: tok}})
			if idx < 0 {
				break
			}
			accepted++
			cur = cur.Extend(tok)
		}
		totalAccepted += accepted
		chains++
	}
	mean := float64(totalAccepted) / float64(chains)
	if mean < 1.2 || mean > 3.5 {
		t.Fatalf("mean accepted chain prefix %.2f outside calibrated band [1.2, 3.5]", mean)
	}
}
