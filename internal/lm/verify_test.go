package lm

import (
	"math"
	"testing"

	"adaserve/internal/mathutil"
)

func newPair(t *testing.T, alpha float64) (*SyntheticLM, *DraftLM) {
	t.Helper()
	target := MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM(target, alpha, 2)
	return target, draft
}

func TestRuleString(t *testing.T) {
	if RuleSampleMatch.String() != "sample-match" ||
		RuleGreedy.String() != "greedy" {
		t.Fatal("rule names wrong")
	}
	if VerifyRule(99).String() == "" {
		t.Fatal("unknown rule should still render")
	}
}

func TestGreedyRuleAcceptsArgmax(t *testing.T) {
	target, _ := newPair(t, 1.0)
	v := NewVerifier(target, RuleGreedy, mathutil.NewRNG(1))
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
	target, _ := newPair(t, 1.0)
	v := NewVerifier(target, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 9}
	p := target.Dist(ctx)
	tok, want := p.Token(0), p.Prob(0)
	accepted := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if idx, _ := v.AcceptAmong(ctx, []Branch{{Token: tok}}); idx == 0 {
			accepted++
		}
	}
	got := float64(accepted) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("acceptance rate %.3f, want p(token) = %.3f", got, want)
	}
}

func TestSampleMatchMultiBranchCoverage(t *testing.T) {
	// With all candidate tokens as branches, acceptance covers 1 − tail.
	target, _ := newPair(t, 1.0)
	v := NewVerifier(target, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 13}
	p := target.Dist(ctx)
	branches := make([]Branch, p.Len())
	for r := range branches {
		branches[r] = Branch{Token: p.Token(r)}
	}
	accepted := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if idx, _ := v.AcceptAmong(ctx, branches); idx >= 0 {
			accepted++
		}
	}
	got := float64(accepted) / n
	want := 1 - 0.02 // the tail mass newPair's target leaves outside the candidates
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("full-branch acceptance %.3f, want %.3f", got, want)
	}
}

func TestSampleMatchCorrectionDistribution(t *testing.T) {
	// The correction token is a true sample from p: over many rejections
	// with no branches, frequencies track the distribution.
	target, _ := newPair(t, 1.0)
	v := NewVerifier(target, RuleSampleMatch, mathutil.NewRNG(1))
	ctx := Context{ReqSeed: 17}
	p := cloneDist(target.Dist(ctx))
	counts := make(map[Token]int)
	const n = 100000
	for i := 0; i < n; i++ {
		_, corr := v.AcceptAmong(ctx, nil)
		counts[corr]++
	}
	got := float64(counts[p.Token(0)]) / n
	if math.Abs(got-p.Prob(0)) > 0.01 {
		t.Fatalf("correction emitted top token %.3f of the time, want %.3f", got, p.Prob(0))
	}
}

// TestVerifierMatchesFreshReference pins the Dist lifetime contract against
// a reference whose every Dist is freshly allocated. Under each rule, the
// verifier must decide identically over the raw models and over freshModel
// wrappers, although between decisions the raw models' buffers are
// restarted by calls on other contexts: the branches come from a draft
// Dist read lazily after a target call (which leaves the draft's buffer
// alone), and a draft call on another context precedes each decision.
func TestVerifierMatchesFreshReference(t *testing.T) {
	run := func(rule VerifyRule, fresh bool) []int {
		var target, draft Model = newPair(t, 0.6)
		if fresh {
			target, draft = freshModel{target}, freshModel{draft}
		}
		v := NewVerifier(target, rule, mathutil.NewRNG(31))
		out := make([]int, 0, 1200)
		walkContexts(200, func(ctx Context) {
			q := draft.Dist(ctx)
			_ = target.Dist(ctx.Extend(4094))
			branches := make([]Branch, 3)
			for r := range branches {
				branches[r] = Branch{Token: q.Token(r)}
			}
			_ = draft.Dist(ctx.Extend(4095))
			idx, corr := v.AcceptAmong(ctx, branches)
			out = append(out, idx, int(corr))
		})
		return out
	}
	for _, rule := range []VerifyRule{RuleSampleMatch, RuleGreedy} {
		t.Run(rule.String(), func(t *testing.T) {
			raw, ref := run(rule, false), run(rule, true)
			if len(raw) != len(ref) {
				t.Fatalf("decision counts differ: %d vs %d", len(raw), len(ref))
			}
			for i := range raw {
				if raw[i] != ref[i] {
					t.Fatalf("raw and fresh-reference verification diverge at %d", i)
				}
			}
		})
	}
}

func TestVerifierDeterministicGivenSeed(t *testing.T) {
	target, draft := newPair(t, 0.8)
	run := func() []int {
		v := NewVerifier(target, RuleSampleMatch, mathutil.NewRNG(55))
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
	v := NewVerifier(target, RuleSampleMatch, mathutil.NewRNG(7))
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
