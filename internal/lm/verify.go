package lm

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// VerifyRule selects the acceptance criterion used during verification.
type VerifyRule int

const (
	// RuleSampleMatch is the default: at each tree position the target
	// samples its token y ~ p and accepts the branch whose token equals y
	// (the correction token is y itself when no branch matches). The output
	// sequence is therefore always distributed exactly as the target's
	// sampling — lossless by construction — and the acceptance probability
	// of a branch is exactly p(branch), so the draft's path products
	// (Eq. 7) are calibrated estimates of the paper's f(v). This matches
	// the paper's formulation, where f(v) is "the probability in which the
	// LLM accepts the path".
	RuleSampleMatch VerifyRule = iota
	// RuleGreedy accepts a branch iff it equals the target argmax; the
	// correction token is the argmax. Deterministic; used in ablations.
	RuleGreedy
	// RuleRejection is multi-branch rejection sampling (SpecInfer-style):
	// draft token x is accepted with probability min(1, p(x)/q(x)) against
	// the running residual of the target distribution; if every branch is
	// rejected the correction token is drawn from the final residual.
	// Provided for ablations: with top-k (rather than sampled) drafting it
	// over-accepts high-rank tokens relative to the f(v) estimates.
	RuleRejection
)

// String implements fmt.Stringer.
func (r VerifyRule) String() string {
	switch r {
	case RuleSampleMatch:
		return "sample-match"
	case RuleGreedy:
		return "greedy"
	case RuleRejection:
		return "rejection"
	default:
		return fmt.Sprintf("VerifyRule(%d)", int(r))
	}
}

// Verifier applies the target model's acceptance rule at one tree position.
// It is the only component that consumes target-model distributions during
// decoding, mirroring how verification is the only point a real system
// queries the LLM.
type Verifier struct {
	Target Model
	Draft  Model
	Rule   VerifyRule
	RNG    *mathutil.RNG
}

// NewVerifier builds a verifier; rng drives stochastic acceptance and must
// be dedicated to this verifier for reproducibility.
func NewVerifier(target, draft Model, rule VerifyRule, rng *mathutil.RNG) *Verifier {
	return &Verifier{Target: target, Draft: draft, Rule: rule, RNG: rng}
}

// Branch is one candidate child during verification, in draft-tree order.
type Branch struct {
	Token Token
}

// AcceptAmong decides which (if any) of the candidate branches the target
// accepts at context ctx.
//
// It returns the index of the accepted branch, or -1 and a correction token
// drawn per the active rule when all branches are rejected. The branch order
// matters for the stochastic rule (earlier branches get first claim on the
// target mass), so callers should order branches by descending draft
// probability, as AdaServe's selection phases do.
func (v *Verifier) AcceptAmong(ctx Context, branches []Branch) (int, Token) {
	p := v.Target.Dist(ctx)
	switch v.Rule {
	case RuleGreedy:
		top := p.Argmax()
		for i, b := range branches {
			if b.Token == top {
				return i, 0
			}
		}
		return -1, top
	case RuleSampleMatch:
		y := p.Sample(v.RNG)
		for i, b := range branches {
			if b.Token == y {
				return i, 0
			}
		}
		return -1, y
	case RuleRejection:
		return v.acceptRejection(ctx, p, branches)
	default:
		panic(fmt.Sprintf("lm: unknown verify rule %d", int(v.Rule)))
	}
}

// acceptRejection runs multi-round rejection sampling across the branches.
func (v *Verifier) acceptRejection(ctx Context, p Dist, branches []Branch) (int, Token) {
	// p stays valid across the draft's Dist call: the draft consults its
	// target only at this same context, which recomputes identical bytes
	// into the target's buffer that p's entries live in.
	q := v.Draft.Dist(ctx)
	// residual starts as the target distribution over the union support.
	res := newResidual(p)
	for i, b := range branches {
		qx := q.Prob(b.Token)
		px := res.prob(b.Token)
		var acceptProb float64
		if qx <= 0 {
			// The draft claims zero mass yet proposed the token (can happen
			// for tail tokens); accept with the target's residual mass.
			acceptProb = px
		} else {
			acceptProb = px / qx
			if acceptProb > 1 {
				acceptProb = 1
			}
		}
		if v.RNG.Float64() < acceptProb {
			return i, 0
		}
		res.subtract(b.Token, qx)
	}
	return -1, res.sample(v.RNG, p.Argmax())
}

// residual tracks the adjusted target distribution max(p − Σq, 0),
// renormalized lazily. probs holds the explicit residual mass of p's
// candidates and of every rejected tail token; tail is the mass of the
// tokens not in probs, spread uniformly over them.
type residual struct {
	probs []TokenProb
	tail  float64
	vocab int
	total float64
}

func newResidual(p Dist) *residual {
	r := &residual{probs: append([]TokenProb(nil), p.Entries...), tail: p.Tail, vocab: p.Vocab}
	r.sum()
	return r
}

// sum recomputes the total residual mass.
func (r *residual) sum() {
	r.total = r.tail
	for _, e := range r.probs {
		r.total += e.Prob
	}
}

// find returns tok's index in probs, or -1 when tok is in the tail.
func (r *residual) find(tok Token) int {
	for i, e := range r.probs {
		if e.Token == tok {
			return i
		}
	}
	return -1
}

// tailShare is the residual mass of one token outside probs.
func (r *residual) tailShare() float64 {
	if free := r.vocab - len(r.probs); free > 0 {
		return r.tail / float64(free)
	}
	return 0
}

// prob returns tok's normalized residual probability.
func (r *residual) prob(tok Token) float64 {
	if r.total <= 0 {
		return 0
	}
	if i := r.find(tok); i >= 0 {
		return r.probs[i].Prob / r.total
	}
	return r.tailShare() / r.total
}

// subtract removes the draft's mass qx at the rejected token tok (standard
// speculative-sampling residual update, applied pointwise:
// res(x) ← max(res(x) − q(x), 0)). A tail token first moves its share out of
// the tail into an explicit entry, so its mass is never counted twice.
func (r *residual) subtract(tok Token, qx float64) {
	i := r.find(tok)
	if i < 0 {
		share := r.tailShare()
		r.tail -= share
		r.probs = append(r.probs, TokenProb{Token: tok, Prob: share})
		i = len(r.probs) - 1
	}
	r.probs[i].Prob = max(r.probs[i].Prob-qx, 0)
	r.sum()
}

// sample draws from the normalized residual; fallback is returned when the
// residual is empty.
func (r *residual) sample(rng *mathutil.RNG, fallback Token) Token {
	if r.total <= 0 {
		return fallback
	}
	u := rng.Float64() * r.total
	var acc float64
	for _, e := range r.probs {
		acc += e.Prob
		if u < acc {
			return e.Token
		}
	}
	// Tail region: uniform over the tokens outside probs, which carry no
	// explicit entry (rank-remapped as in Dist.sampleTail).
	if free := r.vocab - len(r.probs); free > 0 {
		return nthFree(Token(rng.Intn(free)), r.probs)
	}
	return fallback
}
