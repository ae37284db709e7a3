package lm

import (
	"math"
	"testing"
	"testing/quick"

	"adaserve/internal/mathutil"
)

// ctxOf is the context a request with seed reaches after generating hist.
func ctxOf(seed uint64, hist []Token) Context {
	c := Context{ReqSeed: seed}
	for _, tok := range hist {
		c = c.Extend(tok)
	}
	return c
}

func newTarget(t *testing.T) *SyntheticLM {
	t.Helper()
	return MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
}

func TestSyntheticLMConstruction(t *testing.T) {
	cases := []struct {
		vocab, branch   int
		sharpness, tail float64
		ok              bool
	}{
		{4096, 16, 1.6, 0.02, true},
		{1, 1, 1, 0, false},       // vocab too small
		{16, 32, 1, 0, false},     // branch > vocab
		{4096, 16, 1, 1.0, false}, // tail = 1
		{4096, 16, 1, -0.1, false},
		{4096, 16, 0, 0, false},  // uniform weights are not strictly decreasing
		{4096, 16, -1, 0, false}, // nor are increasing ones
	}
	for _, c := range cases {
		_, err := newSyntheticLM(1, c.vocab, c.branch, c.sharpness, c.tail)
		if (err == nil) != c.ok {
			t.Errorf("NewSyntheticLM(%+v): err=%v", c, err)
		}
	}
}

func TestDistNormalized(t *testing.T) {
	m := newTarget(t)
	for i := uint64(0); i < 50; i++ {
		d := m.Dist(Context{ReqSeed: i})
		if err := validate(d, 0.02); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
}

func TestDistDeterministic(t *testing.T) {
	m := newTarget(t)
	ctx := ctxOf(7, []Token{1, 2, 3})
	a := entries(m.Dist(ctx))
	b := entries(m.Dist(ctx))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs", i)
		}
	}
}

func TestDistDependsOnContext(t *testing.T) {
	m := newTarget(t)
	a := entries(m.Dist(ctxOf(7, []Token{1, 2, 3})))
	b := entries(m.Dist(ctxOf(7, []Token{1, 2, 4})))
	if a[0].Token == b[0].Token {
		// Possible by chance; require at least the candidate sets differ.
		same := true
		for i := range a {
			if a[i].Token != b[i].Token {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different contexts produced identical candidate sets")
		}
	}
}

func TestDistDependsOnSeed(t *testing.T) {
	m := newTarget(t)
	a := entries(m.Dist(Context{ReqSeed: 1}))
	b := entries(m.Dist(Context{ReqSeed: 2}))
	if a[0].Token == b[0].Token && a[1].Token == b[1].Token {
		t.Fatal("different request seeds produced identical top entries")
	}
}

func TestHistoryWindowLimits(t *testing.T) {
	m := newTarget(t)
	long := make([]Token, 64)
	for i := range long {
		long[i] = Token(i)
	}
	a := entries(m.Dist(ctxOf(5, long)))
	// Changing a token OUTSIDE the window must not change the distribution.
	long2 := append([]Token(nil), long...)
	long2[0] = 999
	b := entries(m.Dist(ctxOf(5, long2)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("token outside history window changed the distribution")
		}
	}
	// Changing a token INSIDE the window must change it.
	long3 := append([]Token(nil), long...)
	long3[len(long3)-1] = 999
	c := m.Dist(ctxOf(5, long3))
	if a[0].Token == c.Argmax() && a[1].Token == c.Token(1) {
		t.Fatal("token inside history window did not change the distribution")
	}
}

func TestDistProbAndTopK(t *testing.T) {
	m := newTarget(t)
	d := m.Dist(Context{ReqSeed: 3})
	if d.Len() != 16 {
		t.Fatalf("Len %d, want the branch 16", d.Len())
	}
	if d.Token(0) != d.Argmax() {
		t.Fatal("rank 0 != Argmax")
	}
	for r := 0; r < 4; r++ {
		if got := prob(d, 0.02, d.Token(r)); got != d.Prob(r) {
			t.Fatalf("prob(rank %d) = %g, want %g", r, got, d.Prob(r))
		}
		if r > 0 && d.Prob(r) >= d.Prob(r-1) {
			t.Fatalf("rank %d prob %g not below rank %d's %g", r, d.Prob(r), r-1, d.Prob(r-1))
		}
	}
	// Tail token probability is tiny but nonzero.
	var missing Token
	for tok := Token(0); ; tok++ {
		if prob(d, 0.02, tok) < 1e-4 {
			missing = tok
			break
		}
	}
	if p := prob(d, 0.02, missing); p <= 0 || p > 1e-4 {
		t.Fatalf("tail token prob %g", p)
	}
}

func TestDistSampleMatchesProbabilities(t *testing.T) {
	m := newTarget(t)
	d := m.Dist(Context{ReqSeed: 11})
	rng := mathutil.NewRNG(99)
	counts := make(map[Token]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	got := float64(counts[d.Token(0)]) / n
	if math.Abs(got-d.Prob(0)) > 0.01 {
		t.Fatalf("top token sampled %.3f, want %.3f", got, d.Prob(0))
	}
	got2 := float64(counts[d.Token(1)]) / n
	if math.Abs(got2-d.Prob(1)) > 0.01 {
		t.Fatalf("second token sampled %.3f, want %.3f", got2, d.Prob(1))
	}
}

func TestSharpnessControlsTopProbability(t *testing.T) {
	soft := MustSyntheticLM(1, 4096, 16, 1.0, 0.02)
	sharp := MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	var softTop, sharpTop float64
	for i := uint64(0); i < 100; i++ {
		softTop += soft.Dist(Context{ReqSeed: i}).Prob(0)
		sharpTop += sharp.Dist(Context{ReqSeed: i}).Prob(0)
	}
	if sharpTop <= softTop {
		t.Fatal("sharper model should concentrate more mass on the argmax")
	}
	if avg := sharpTop / 100; avg < 0.7 || avg > 0.95 {
		t.Fatalf("sharp top-1 prob %.2f outside calibrated band [0.7,0.95]", avg)
	}
}

func TestContextExtendImmutable(t *testing.T) {
	ctx := ctxOf(1, []Token{1, 2})
	ext := ctx.Extend(3)
	if ctx.n != 2 {
		t.Fatal("Extend mutated the original context")
	}
	if w := ext.win[:ext.n]; len(w) != 3 || w[2] != 3 {
		t.Fatalf("Extend result wrong: %v", w)
	}
	// Extending the original again must not corrupt ext.
	_ = ctx.Extend(9)
	if ext.win[2] != 3 {
		t.Fatal("sibling Extend corrupted earlier extension")
	}
}

func TestContextWindowSlides(t *testing.T) {
	ctx := Context{ReqSeed: 1}
	for i := Token(0); i < 10; i++ {
		ctx = ctx.Extend(i)
	}
	want := []Token{6, 7, 8, 9}
	got := ctx.win[:ctx.n]
	if len(got) != historyWindow {
		t.Fatalf("window length %d, want %d", len(got), historyWindow)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window %v, want %v", got, want)
		}
	}
}

func TestDraftAlphaBounds(t *testing.T) {
	target := newTarget(t)
	if _, err := newDraftLM(target, -0.1, 1); err == nil {
		t.Error("alpha < 0 accepted")
	}
	if _, err := newDraftLM(target, 1.1, 1); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := newDraftLM(target, 0.5, 1); err != nil {
		t.Errorf("alpha 0.5 rejected: %v", err)
	}
}

func TestDraftPerfectAlignment(t *testing.T) {
	target := newTarget(t)
	draft := MustDraftLM(target, 1.0, 2)
	for i := uint64(0); i < 20; i++ {
		ctx := Context{ReqSeed: i}
		p := entries(target.Dist(ctx))
		q := entries(draft.Dist(ctx))
		for j := range p {
			if p[j] != q[j] {
				t.Fatalf("alpha=1 draft differs from target at seed %d", i)
			}
		}
	}
}

func TestDraftAgreementRate(t *testing.T) {
	target := newTarget(t)
	for _, alpha := range []float64{0.5, 0.8, 0.9} {
		draft := MustDraftLM(target, alpha, 7)
		agree := 0
		const n = 5000
		for i := uint64(0); i < n; i++ {
			ctx := Context{ReqSeed: i}
			if target.Dist(ctx).Argmax() == draft.Dist(ctx).Argmax() {
				agree++
			}
		}
		got := float64(agree) / n
		if math.Abs(got-alpha) > 0.03 {
			t.Errorf("alpha=%.1f: argmax agreement %.3f", alpha, got)
		}
	}
}

func TestDraftMistakesAreNearMisses(t *testing.T) {
	target := newTarget(t)
	draft := MustDraftLM(target, 0.0, 7) // disagree everywhere
	nearMiss := 0
	const n = 2000
	for i := uint64(0); i < n; i++ {
		ctx := Context{ReqSeed: i}
		top := target.Dist(ctx).Argmax()
		q := draft.Dist(ctx)
		// The target's argmax should usually be within the draft's top 3.
		for r := 0; r < 3; r++ {
			if q.Token(r) == top {
				nearMiss++
				break
			}
		}
	}
	if frac := float64(nearMiss) / n; frac < 0.70 {
		t.Fatalf("target argmax within draft top-3 only %.2f of mistaken contexts", frac)
	}
}

func TestDraftDistNormalized(t *testing.T) {
	target := newTarget(t)
	draft := MustDraftLM(target, 0.7, 3)
	err := quick.Check(func(seed uint64, toks []uint8) bool {
		hist := make([]Token, len(toks))
		for i, b := range toks {
			hist[i] = Token(b)
		}
		d := draft.Dist(ctxOf(seed, hist))
		return validate(d, 0.02) == nil
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistValidateCatchesBadDists(t *testing.T) {
	for _, c := range []struct {
		name string
		es   []tokenProb
	}{
		{"unsorted", []tokenProb{{Token: 1, Prob: 0.4}, {Token: 2, Prob: 0.6}}},
		{"non-normalized", []tokenProb{{Token: 1, Prob: 0.5}}},
		{"negative prob", []tokenProb{{Token: 1, Prob: 1.5}, {Token: 2, Prob: -0.5}}},
		{"duplicate token", []tokenProb{{Token: 1, Prob: 0.6}, {Token: 1, Prob: 0.4}}},
		{"out of vocabulary", []tokenProb{{Token: 10, Prob: 0.6}, {Token: 1, Prob: 0.4}}},
	} {
		if validateEntries(c.es, 0, 10) == nil {
			t.Errorf("%s dist validated", c.name)
		}
	}
	if err := validateEntries([]tokenProb{{Token: 3, Prob: 0.6}, {Token: 1, Prob: 0.4}}, 0, 10); err != nil {
		t.Errorf("valid dist rejected: %v", err)
	}
}
