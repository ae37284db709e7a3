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
)

// String implements fmt.Stringer.
func (r VerifyRule) String() string {
	switch r {
	case RuleSampleMatch:
		return "sample-match"
	case RuleGreedy:
		return "greedy"
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
	Rule   VerifyRule
	RNG    *mathutil.RNG
}

// NewVerifier builds a verifier; rng drives stochastic acceptance and must
// be dedicated to this verifier for reproducibility.
func NewVerifier(target Model, rule VerifyRule, rng *mathutil.RNG) *Verifier {
	return &Verifier{Target: target, Rule: rule, RNG: rng}
}

// Branch is one candidate child during verification, in draft-tree order.
type Branch struct {
	Token Token
}

// AcceptAmong decides which (if any) of the candidate branches the target
// accepts at context ctx.
//
// It returns the index of the accepted branch, or -1 and a correction token
// drawn per the active rule when all branches are rejected.
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
	default:
		panic(fmt.Sprintf("lm: unknown verify rule %d", int(v.Rule)))
	}
}
