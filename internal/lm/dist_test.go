package lm

import (
	"fmt"
	"sort"
	"testing"

	"adaserve/internal/mathutil"
)

// Len returns the number of candidate ranks.
func (d Dist) Len() int { return d.g.m.branch }

// Prob returns the probability at rank r, for r in [0, Len()).
func (d Dist) Prob(r int) float64 { return d.g.m.weights[r] }

// tokenProb pairs a token with its probability: one materialized rank.
type tokenProb struct {
	Token Token
	Prob  float64
}

// entries materializes every rank of d, in rank order, into a fresh slice
// that outlives d.
func entries(d Dist) []tokenProb {
	out := make([]tokenProb, d.Len())
	for r := range out {
		out[r] = tokenProb{Token: d.Token(r), Prob: d.Prob(r)}
	}
	return out
}

// cloneDist generates every rank of d and copies them out of the model's
// buffer, so the clone stays valid across later Dist calls.
func cloneDist(d Dist) Dist {
	d.g.at(d.Len() - 1)
	d.g = &ranks{m: d.g.m, x: d.g.x, toks: append([]Token(nil), d.g.toks...)}
	return d
}

// prob returns the probability of tok under d, whose model was built with
// tail mass tail: a linear scan of the candidate ranks, else tok's uniform
// share of the tail. It is FuzzDistSample's mass oracle.
func prob(d Dist, tail float64, tok Token) float64 {
	for _, e := range entries(d) {
		if e.Token == tok {
			return e.Prob
		}
	}
	vocab := d.g.m.vocab
	if vocab <= d.Len() {
		return 0
	}
	return tail / float64(vocab-d.Len())
}

// validate checks that d, from a model built with tail mass tail, is a
// normalized distribution over distinct in-vocabulary candidates sorted by
// descending probability.
func validate(d Dist, tail float64) error {
	return validateEntries(entries(d), tail, d.g.m.vocab)
}

// validateEntries is validate over materialized ranks.
func validateEntries(es []tokenProb, tail float64, vocab int) error {
	s := tail
	prev := 1.1
	seen := make(map[Token]bool, len(es))
	for _, e := range es {
		if e.Prob < 0 {
			return fmt.Errorf("lm: negative probability %g", e.Prob)
		}
		if e.Prob > prev+1e-12 {
			return fmt.Errorf("lm: entries not sorted descending")
		}
		if e.Token < 0 || int(e.Token) >= vocab {
			return fmt.Errorf("lm: token %d outside vocabulary %d", e.Token, vocab)
		}
		if seen[e.Token] {
			return fmt.Errorf("lm: duplicate candidate %d", e.Token)
		}
		seen[e.Token] = true
		prev = e.Prob
		s += e.Prob
	}
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("lm: distribution sums to %g", s)
	}
	return nil
}

// freshModel wraps a model and clones every Dist it returns: the aliasing
// reference, whose results no later call can rebuild in place.
type freshModel struct{ Model }

func (f freshModel) Dist(ctx Context) Dist { return cloneDist(f.Model.Dist(ctx)) }

// walkContexts yields a deterministic stream of contexts mixing fresh seeds
// and incremental extensions, the same access pattern decoding produces.
func walkContexts(n int, visit func(Context)) {
	rng := mathutil.NewRNG(0xcafe)
	for i := 0; i < n; i++ {
		ctx := Context{ReqSeed: uint64(i % 17)}
		steps := 1 + rng.Intn(8)
		for s := 0; s < steps; s++ {
			visit(ctx)
			ctx = ctx.Extend(Token(rng.Intn(64)))
		}
	}
}

// eagerDist is the eager distribution the models built before Dist became
// lazy: every candidate materialized, sorted by descending probability.
type eagerDist struct {
	entries []tokenProb
	tail    float64
	vocab   int
}

// eagerTarget is the eager SyntheticLM.computeDist: all branch candidates
// of the SplitMix stream from h, deduplicated by a linear scan, with the
// rank weights in order.
func eagerTarget(m *SyntheticLM, tail float64, h uint64) eagerDist {
	var es []tokenProb
	x := h
	for len(es) < m.branch {
		x = mathutil.SplitMix64(x)
		tok := Token(x % uint64(m.vocab))
		dup := false
		for i := range es {
			if es[i].Token == tok {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		es = append(es, tokenProb{Token: tok, Prob: m.weights[len(es)]})
	}
	return eagerDist{entries: es, tail: tail, vocab: m.vocab}
}

// eagerDraft is the eager DraftLM.computeDist. With sorted set it takes the
// generic path the non-strict weight tables needed: swap the probabilities
// of ranks 0 and j, then stable-sort by (probability desc, token asc);
// otherwise it swaps the two tokens' positions.
func eagerDraft(d *DraftLM, tail float64, hd, ht uint64, sorted bool) eagerDist {
	p := eagerTarget(d.target, tail, ht)
	es := p.entries
	u := float64(hd>>11) / (1 << 53)
	if u < d.alpha || len(es) < 2 {
		return p
	}
	j := disagreeRank(mathutil.SplitMix64(hd), len(es)-1)
	if !sorted {
		es[0].Token, es[j].Token = es[j].Token, es[0].Token
		return p
	}
	es[0].Prob, es[j].Prob = es[j].Prob, es[0].Prob
	sort.SliceStable(es, func(a, b int) bool {
		if es[a].Prob != es[b].Prob {
			return es[a].Prob > es[b].Prob
		}
		return es[a].Token < es[b].Token
	})
	return p
}

// sample is the eager Dist.Sample.
func (d eagerDist) sample(rng *mathutil.RNG) Token {
	u := rng.Float64()
	var acc float64
	for _, e := range d.entries {
		acc += e.Prob
		if u < acc {
			return e.Token
		}
	}
	return d.sampleTail(rng)
}

// sampleTail is the eager Dist.sampleTail, with its own copy of nthFree.
func (d eagerDist) sampleTail(rng *mathutil.RNG) Token {
	free := d.vocab - len(d.entries)
	if free <= 0 {
		if len(d.entries) > 0 {
			return d.entries[len(d.entries)-1].Token
		}
		return 0
	}
	r := Token(rng.Intn(free))
	v := r
	for {
		cnt := Token(0)
		for _, e := range d.entries {
			if e.Token <= v {
				cnt++
			}
		}
		if r+cnt == v {
			return v
		}
		v = r + cnt
	}
}

// acceptAmong is Verifier.AcceptAmong over an eager distribution.
func (d eagerDist) acceptAmong(rule VerifyRule, rng *mathutil.RNG, branches []Branch) (int, Token) {
	y := d.entries[0].Token
	if rule == RuleSampleMatch {
		y = d.sample(rng)
	}
	for i, b := range branches {
		if b.Token == y {
			return i, 0
		}
	}
	return -1, y
}

// TestLazyDistMatchesEager pins the lazy rank accessor to the eager
// distributions it replaced, for the target and the draft of both model
// setups (and a heavy-tail table whose Sample often lands in the tail), at
// alpha 0, 0.5 and 1. Each Dist is probed from a different lazily
// generated prefix: ranks read in a shuffled order, then Argmax, Sample,
// a forced tail draw and both verification rules, each of which must
// return the eager token and leave the RNG in the eager state. The mistaken
// draft is checked against both eager constructions: the token swap and
// the sort the non-strict weight tables took.
func TestLazyDistMatchesEager(t *testing.T) {
	setups := []struct {
		name            string
		vocab, branch   int
		sharpness, tail float64
	}{
		{"llama", 4096, 16, 3.2, 0.02},
		{"qwen", 4096, 16, 3.0, 0.02},
		{"heavy-tail", 40, 12, 0.7, 0.45},
	}
	for _, s := range setups {
		for _, alpha := range []float64{0, 0.5, 1} {
			t.Run(fmt.Sprintf("%s/alpha=%g", s.name, alpha), func(t *testing.T) {
				target := MustSyntheticLM(5, s.vocab, s.branch, s.sharpness, s.tail)
				draft := MustDraftLM(target, alpha, 6)
				probe := mathutil.NewRNG(uint64(alpha*10) + 1)
				walkContexts(150, func(ctx Context) {
					ht := ctx.hash(target.seed)
					hd := ctx.hash(draft.seed)
					for _, c := range []struct {
						name  string
						model Model
						want  []eagerDist
					}{
						{"target", target, []eagerDist{eagerTarget(target, s.tail, ht)}},
						{"draft", draft, []eagerDist{
							eagerDraft(draft, s.tail, hd, ht, false),
							eagerDraft(draft, s.tail, hd, ht, true),
						}},
					} {
						for _, want := range c.want {
							checkLazyDist(t, c.name, ctx, c.model, want, probe)
						}
					}
				})
			})
		}
	}
}

// checkLazyDist compares every read of model's lazy Dist at ctx against the
// eager distribution want, starting each read from a prefix of a length
// probe draws.
func checkLazyDist(t *testing.T, name string, ctx Context, model Model, want eagerDist, probe *mathutil.RNG) {
	t.Helper()
	branch := len(want.entries)
	// prefix returns a fresh Dist with a random number of ranks generated.
	prefix := func() Dist {
		d := model.Dist(ctx)
		if k := probe.Intn(branch + 1); k > 0 {
			d.Token(probe.Intn(k))
		}
		return d
	}
	d := prefix()
	if d.Len() != branch {
		t.Fatalf("%s %+v: Len %d, eager %d", name, ctx, d.Len(), branch)
	}
	for _, r := range shuffled(probe, branch) {
		if got := (tokenProb{d.Token(r), d.Prob(r)}); got != want.entries[r] {
			t.Fatalf("%s %+v: rank %d is %+v, eager %+v", name, ctx, r, got, want.entries[r])
		}
	}
	if got := prefix().Argmax(); got != want.entries[0].Token {
		t.Fatalf("%s %+v: Argmax %d, eager %d", name, ctx, got, want.entries[0].Token)
	}
	seed := uint64(probe.Intn(1 << 30))
	for draw := uint64(0); draw < 4; draw++ {
		a, b := mathutil.NewRNG(seed+draw), mathutil.NewRNG(seed+draw)
		if got, w := prefix().Sample(a), want.sample(b); got != w || *a != *b {
			t.Fatalf("%s %+v: Sample drew %d, eager %d (RNG states equal: %v)", name, ctx, got, w, *a == *b)
		}
		if got, w := prefix().sampleTail(a), want.sampleTail(b); got != w || *a != *b {
			t.Fatalf("%s %+v: tail draw %d, eager %d (RNG states equal: %v)", name, ctx, got, w, *a == *b)
		}
	}
	// Branches: the eager argmax, runner-up and last candidate, and one
	// token outside the candidate set, in a probe-chosen count.
	branches := []Branch{{Token: want.entries[branch-1].Token}, {Token: want.entries[0].Token}}
	if branch > 1 {
		branches = append(branches, Branch{Token: want.entries[1].Token})
	}
	if tok, ok := outside(want); ok {
		branches = append(branches, Branch{Token: tok})
	}
	for _, rule := range []VerifyRule{RuleGreedy, RuleSampleMatch} {
		bs := branches[:probe.Intn(len(branches)+1)]
		a, b := mathutil.NewRNG(seed), mathutil.NewRNG(seed)
		gi, gt := NewVerifier(model, rule, a).AcceptAmong(ctx, bs)
		wi, wt := want.acceptAmong(rule, b, bs)
		if gi != wi || gt != wt || *a != *b {
			t.Fatalf("%s %+v %s: AcceptAmong (%d, %d), eager (%d, %d) (RNG states equal: %v)",
				name, ctx, rule, gi, gt, wi, wt, *a == *b)
		}
	}
}

// shuffled returns a probe-shuffled permutation of [0, n).
func shuffled(probe *mathutil.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := probe.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// outside returns the smallest token that is no candidate of d, if any.
func outside(d eagerDist) (Token, bool) {
	for tok := Token(0); int(tok) < d.vocab; tok++ {
		taken := false
		for _, e := range d.entries {
			taken = taken || e.Token == tok
		}
		if !taken {
			return tok, true
		}
	}
	return 0, false
}

// TestUniformWeightsRejected pins the construction rule the rank-space
// speculation relies on: the rank weights must be strictly decreasing, so
// a sharpness of 0 (uniform weights) or below is an error.
func TestUniformWeightsRejected(t *testing.T) {
	for _, sharpness := range []float64{0, -1} {
		if _, err := newSyntheticLM(7, 256, 8, sharpness, 0.02); err == nil {
			t.Errorf("sharpness %g accepted", sharpness)
		}
	}
	if _, err := newSyntheticLM(7, 256, 8, 1e-300, 0.02); err == nil {
		t.Error("sharpness 1e-300 (equal weights in float) accepted")
	}
	if _, err := newSyntheticLM(7, 256, 8, 0.5, 0.02); err != nil {
		t.Errorf("sharpness 0.5 rejected: %v", err)
	}
}

// TestDistAllocatesNothing pins the model-owned buffers: every Dist call,
// each on a fresh context, and reading all of its ranks allocate nothing,
// for the target and for the draft.
func TestDistAllocatesNothing(t *testing.T) {
	target := MustSyntheticLM(3, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM(target, 0.5, 9)
	seed := uint64(0)
	for _, c := range []struct {
		name  string
		model Model
	}{{"target", target}, {"draft", draft}} {
		allocs := testing.AllocsPerRun(500, func() {
			seed++
			d := c.model.Dist(Context{ReqSeed: seed})
			_ = d.Token(d.Len() - 1)
		})
		if allocs != 0 {
			t.Errorf("%s: Dist allocated %.1f times per call", c.name, allocs)
		}
	}
}

// TestDraftCallKeepsTargetDist pins the lifetime contract across models: a
// draft Dist call on another context leaves a target Dist readable, and a
// target call leaves a draft Dist readable.
func TestDraftCallKeepsTargetDist(t *testing.T) {
	target := MustSyntheticLM(3, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM(target, 0.5, 9)
	walkContexts(50, func(ctx Context) {
		wantP := entries(target.Dist(ctx))
		wantQ := entries(draft.Dist(ctx))
		q := draft.Dist(ctx)
		_ = target.Dist(ctx.Extend(2)).Token(15)
		for r, e := range wantQ {
			if q.Token(r) != e.Token {
				t.Fatalf("%+v: draft rank %d changed after a target call", ctx, r)
			}
		}
		p := target.Dist(ctx)
		_ = draft.Dist(ctx.Extend(3)).Token(15)
		for r, e := range wantP {
			if p.Token(r) != e.Token {
				t.Fatalf("%+v: target rank %d changed after a draft call", ctx, r)
			}
		}
	})
}

// TestSampleTailAvoidsCandidates verifies the tail fallback fix: a tail draw
// must land outside the candidate set (the old code could return a candidate,
// double-counting its mass).
func TestSampleTailAvoidsCandidates(t *testing.T) {
	// Large tail and tiny vocab make tail hits and collisions frequent.
	const tail = 0.4
	m := MustSyntheticLM(1, 32, 8, 1.0, tail)
	d := m.Dist(Context{ReqSeed: 2})
	es := entries(d)
	cand := make(map[Token]bool, len(es))
	for _, e := range es {
		cand[e.Token] = true
	}
	rng := mathutil.NewRNG(77)
	counts := make(map[Token]int)
	const n = 200000
	tailDraws := 0
	for i := 0; i < n; i++ {
		tok := d.Sample(rng)
		counts[tok]++
		if !cand[tok] {
			tailDraws++
		}
	}
	if tailDraws == 0 {
		t.Fatal("tail never sampled — test exercised nothing")
	}
	// Tail frequency should match the tail mass.
	if got := float64(tailDraws) / n; got < 0.35 || got > 0.45 {
		t.Fatalf("tail sampled %.3f of draws, want ≈ 0.40", got)
	}
	// Candidate frequencies must match their stated probabilities (the old
	// fallback inflated candidates by the tail's collision mass).
	for _, e := range es {
		got := float64(counts[e.Token]) / n
		if diff := got - e.Prob; diff > 0.01 || diff < -0.01 {
			t.Fatalf("token %d sampled %.3f, want %.3f", e.Token, got, e.Prob)
		}
	}
	// Each non-candidate should get roughly tail/(vocab-branch) mass.
	per := tail / float64(m.vocab-len(es))
	for tok := Token(0); tok < Token(m.vocab); tok++ {
		if cand[tok] {
			continue
		}
		got := float64(counts[tok]) / n
		if diff := got - per; diff > 0.01 || diff < -0.01 {
			t.Fatalf("tail token %d sampled %.4f, want ≈ %.4f", tok, got, per)
		}
	}
}
