package core

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// Controller implements AdaServe's adaptive speculation control (Eq. 8–9):
// at the start of each iteration, the depth d and beam width w of the
// candidate trees are recomputed from the number of active requests n:
//
//	d = clip(D_max, D_min, ⌊b1/(n+c1)⌋ − 1)
//	w = clip(W_max, 1,     ⌊b2/n⌋ + c2)
//
// b1 is the verifier's per-iteration token budget and b2 the speculator's,
// so depth tracks the average verification budget per request (speculating
// deeper than can be verified is wasted draft compute) and width tracks the
// speculator's own parallel capacity.
type Controller struct {
	// DMin and DMax bound the speculation depth.
	DMin, DMax int
	// WMax bounds the beam width (lower bound is 1).
	WMax int
	// b1 is the verifier token budget per decoding step.
	b1 int
	// b2 is the speculator token budget per decoding step.
	b2 int
	// c1 and c2 are the tunable constants of Eq. 8–9 (grid-searched).
	c1, c2 int
}

// DefaultController returns the controller configuration used by the
// experiment suite, parameterized by the verifier budget.
func DefaultController(verifierBudget int) Controller {
	return Controller{
		DMin: 1, DMax: 8, WMax: 4,
		b1: verifierBudget,
		b2: verifierBudget,
		// c1 is grid-searched (as the paper does): it damps depth at small
		// n, where draft steps are the marginal cost, while leaving the
		// d ~ B/n scaling at load.
		c1: 12, c2: 0,
	}
}

// Validate reports whether the bounds are coherent.
func (c Controller) Validate() error {
	if c.DMin < 0 || c.DMax < c.DMin {
		return fmt.Errorf("core: controller depth bounds [%d,%d] invalid", c.DMin, c.DMax)
	}
	if c.WMax < 1 {
		return fmt.Errorf("core: controller WMax %d < 1", c.WMax)
	}
	if c.b1 <= 0 || c.b2 <= 0 {
		return fmt.Errorf("core: controller budgets B1=%d B2=%d must be positive", c.b1, c.b2)
	}
	if c.c1 < 0 {
		return fmt.Errorf("core: controller C1 %d < 0 (divides by n+C1)", c.c1)
	}
	return nil
}

// Params returns the speculation depth and beam width for n active
// requests. n <= 0 is treated as 1 (the policy is only consulted when there
// is work).
func (c Controller) Params(n int) (d, w int) {
	return c.ParamsWithBudget(n, c.b1, c.b2)
}

// ParamsWithBudget evaluates Eq. 8–9 with explicit per-iteration budgets,
// for schedulers whose verification budget varies with load.
func (c Controller) ParamsWithBudget(n, b1, b2 int) (d, w int) {
	if n <= 0 {
		n = 1
	}
	d = mathutil.ClipInt(b1/(n+c.c1)-1, c.DMin, c.DMax)
	w = mathutil.ClipInt(b2/n+c.c2, 1, c.WMax)
	return d, w
}

// StaticController returns a controller that always yields (d, w),
// for the static-speculation ablation.
func StaticController(d, w int) Controller {
	return Controller{DMin: d, DMax: d, WMax: w, b1: 1, b2: w * 1 << 20, c1: 0, c2: 0}
}
