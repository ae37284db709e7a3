// Package lm provides the synthetic language models the simulator serves.
//
// A real serving system observes its LLM through exactly two channels: the
// cost of a forward pass (modeled in internal/gpu) and the token-level
// accept/reject behaviour during speculative verification. This package
// reproduces the second channel with a deterministic, seedable synthetic
// autoregressive model:
//
//   - The target model assigns every context a next-token distribution
//     derived from a hash of the recent tokens, with Zipf-shaped mass over a
//     small candidate set (real LLM next-token distributions are similarly
//     concentrated).
//   - The draft model is an alpha-mixture of the target distribution and an
//     independent "mistake" distribution, so draft/target alignment — the
//     single statistic that governs speculation acceptance rates — is a
//     tunable scalar calibrated against the paper's Figure 12.
//
// Everything is deterministic given (model seed, request seed, context), so
// experiments replay exactly.
//
// Hot-path design: the next-token distribution is a pure function of the
// 64-bit context hash, and almost every Dist call asks about a context the
// model has not seen recently (decoding keeps moving on), so nothing is
// memoized. The draft is asked only where verification walks: a beam
// tree's structure depends on the rank probabilities alone (RankProbs),
// and a node's draft tokens are read when the walk reaches it. A Dist is a lazy view of one context's candidates in rank
// order: a Dist call only hashes the context, and the candidates are
// generated from that hash as far as the highest rank read, into a
// branch-sized token buffer the model allocates in its constructor. The
// candidate sequence is sequential (a SplitMix64 stream with duplicates
// skipped), so every generated prefix is exactly the prefix of the full
// candidate list. The probability at each rank is the model's Zipf weight
// for that rank, whatever the context, so reading a probability generates
// nothing. Argmax reads rank 0; Sample walks the ranks until its uniform
// draw falls below the running sum, and only a draw that lands in the tail
// builds all branch candidates, because a tail token must avoid them all.
// No call allocates. The price is a lifetime contract: a Dist returned by a
// model is valid until that model's next Dist call (see Dist). Context
// itself is a small value type carrying only the historyWindow-sized suffix
// that conditions the distribution, so extending a context allocates
// nothing. Models are NOT safe for concurrent use: give each goroutine its
// own engine/models, as the parallel experiment runner does.
package lm

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// Token is a vocabulary item. Valid tokens are in [0, VocabSize).
type Token int32

// Dist is a truncated next-token distribution: explicit probabilities for
// the model's branch candidate tokens, ranked by descending probability,
// plus tail mass smeared uniformly over the rest of the vocabulary. Rank r
// has the model's rank-r weight (DraftLM.RankProbs) in every context; only
// the token at a rank depends on the context.
//
// Dist is lazy: it generates candidates in the model's token buffer as far
// as the highest rank read, and a tail draw in Sample generates them all.
//
// Lifetime: a Dist reads the buffer of the model that returned it and is
// valid until that model's next Dist call, which restarts the buffer for
// another context. A target and its draft own separate buffers, so a call
// on one never invalidates a Dist of the other.
type Dist struct {
	g *ranks
	// swap is the rank whose token trades places with rank 0's (a mistaken
	// draft); 0 leaves every rank in place.
	swap int
}

// ranks generates one context's candidate tokens in rank order on demand.
type ranks struct {
	m *SyntheticLM
	// x is the SplitMix64 state after the last generated candidate.
	x uint64
	// toks holds the candidates generated so far, in rank order; its
	// capacity is the model's branch.
	toks []Token
}

func newRanks(m *SyntheticLM) ranks {
	return ranks{m: m, toks: make([]Token, 0, m.branch)}
}

// restart points the buffer at the context hash h with nothing generated.
func (g *ranks) restart(h uint64) {
	g.x = h
	g.toks = g.toks[:0]
}

// at returns the candidate at rank r, generating up to it.
func (g *ranks) at(r int) Token {
	if r < len(g.toks) {
		return g.toks[r]
	}
	return g.grow(r)
}

// grow generates candidates until rank r exists. Candidate dedup is a
// linear scan of the earlier ranks (branch is small), not a map, so nothing
// is allocated.
func (g *ranks) grow(r int) Token {
	vocab := uint64(g.m.vocab)
	for len(g.toks) <= r {
		g.x = mathutil.SplitMix64(g.x)
		tok := Token(g.x % vocab)
		dup := false
		for _, t := range g.toks {
			if t == tok {
				dup = true
				break
			}
		}
		if !dup {
			g.toks = append(g.toks, tok)
		}
	}
	return g.toks[r]
}

// Token returns the candidate token at rank r, for r below the model's
// branch.
func (d Dist) Token(r int) Token {
	if r == 0 {
		r = d.swap
	} else if r == d.swap {
		r = 0
	}
	return d.g.at(r)
}

// Argmax returns the most likely token.
func (d Dist) Argmax() Token { return d.Token(0) }

// Sample draws a token from d using rng.
func (d Dist) Sample(rng *mathutil.RNG) Token {
	u := rng.Float64()
	var acc float64
	for r, p := range d.g.m.weights {
		acc += p
		if u < acc {
			return d.Token(r)
		}
	}
	return d.sampleTail(rng)
}

// sampleTail draws uniformly over the NON-candidate tokens: the tail mass
// belongs exclusively to tokens outside the candidate set, so a draw that
// landed in the tail must never return a candidate (returning one would
// double-count its mass on top of its explicit entry). It generates every
// candidate.
func (d Dist) sampleTail(rng *mathutil.RNG) Token {
	m := d.g.m
	free := m.vocab - m.branch
	if free <= 0 {
		// No non-candidate tokens exist: fall back to the least likely
		// candidate.
		return d.Token(m.branch - 1)
	}
	d.g.at(m.branch - 1)
	return nthFree(Token(rng.Intn(free)), d.g.toks)
}

// nthFree returns the r-th smallest (0-based) token not among the distinct
// tokens of taken: the least fixpoint of v = r + #(taken tokens <= v).
// Iterating from r converges in at most len(taken)+1 rounds and needs no
// sorted order.
func nthFree(r Token, taken []Token) Token {
	v := r
	for {
		cnt := Token(0)
		for _, t := range taken {
			if t <= v {
				cnt++
			}
		}
		if r+cnt == v {
			return v
		}
		v = r + cnt
	}
}

// historyWindow is how many trailing tokens condition the next-token
// distribution.
const historyWindow = 4

// Context identifies a decoding position: the request's own seed (so two
// requests with identical recent tokens still have independent text) plus
// the trailing historyWindow tokens of the generated history (an order-n
// Markov approximation — only the window conditions the distribution, so
// only the window is stored). Context is a small value type: Extend never
// allocates, and contexts compare with ==.
type Context struct {
	ReqSeed uint64
	// win holds the most recent min(n, historyWindow) history tokens, oldest
	// first.
	win [historyWindow]Token
	// n is the number of valid tokens in win.
	n uint8
}

// Extend returns a context with one more history token appended. Pure value
// semantics: the receiver is unchanged and nothing is allocated.
func (c Context) Extend(tok Token) Context {
	if int(c.n) < historyWindow {
		c.win[c.n] = tok
		c.n++
		return c
	}
	copy(c.win[:], c.win[1:])
	c.win[historyWindow-1] = tok
	return c
}

// hash folds the request seed and trailing window into one 64-bit value.
func (c Context) hash(salt uint64) uint64 {
	h := mathutil.Hash2(c.ReqSeed, salt)
	for _, t := range c.win[:c.n] {
		h = mathutil.Hash2(h, uint64(t)+0x1000)
	}
	return h
}

// Model is a synthetic autoregressive language model.
type Model interface {
	// Dist returns the next-token distribution for ctx.
	Dist(ctx Context) Dist
}

// SyntheticLM is the target ("large") model.
type SyntheticLM struct {
	seed uint64
	// vocab is the vocabulary size.
	vocab int
	// branch is the candidate-set size per context.
	branch int
	// weights are the strictly decreasing Zipf weights of the ranks, shared
	// by every context (which tokens hold the ranks is context-dependent).
	// The tail mass outside the candidate set is 1 minus their sum.
	weights []float64
	// g is the token buffer every Dist call restarts.
	g ranks
}

// newSyntheticLM constructs a target model.
//
//   - vocab: vocabulary size (e.g. 4096; the serving layer never enumerates it).
//   - branch: candidate tokens per context (e.g. 16).
//   - sharpness: Zipf exponent, > 0; higher concentrates mass on the top
//     token. sharpness ≈ 1.6 yields top-1 probability ≈ 0.6, typical of
//     instruct LLMs under greedy-ish sampling.
//   - tail: probability mass outside the candidate set (e.g. 0.02).
func newSyntheticLM(seed uint64, vocab, branch int, sharpness, tail float64) (*SyntheticLM, error) {
	if vocab < 2 || branch < 1 || branch > vocab {
		return nil, fmt.Errorf("lm: bad vocab/branch %d/%d", vocab, branch)
	}
	if tail < 0 || tail >= 1 {
		return nil, fmt.Errorf("lm: tail %g out of [0,1)", tail)
	}
	if !(sharpness > 0) {
		return nil, fmt.Errorf("lm: sharpness %g must be > 0 for strictly decreasing rank weights", sharpness)
	}
	// Adjacent weights must differ by more than float rounding, so that a
	// parent's path prob times them stays strictly decreasing too.
	w := mathutil.ZipfWeights(branch, sharpness)
	for i := range w {
		w[i] *= 1 - tail
		if i > 0 && !(w[i] < w[i-1]*(1-1e-9)) {
			return nil, fmt.Errorf("lm: sharpness %g gives rank weights that are not strictly decreasing", sharpness)
		}
	}
	m := &SyntheticLM{seed: seed, vocab: vocab, branch: branch, weights: w}
	m.g = newRanks(m)
	return m, nil
}

// MustSyntheticLM panics on construction error; for fixed experiment setups.
func MustSyntheticLM(seed uint64, vocab, branch int, sharpness, tail float64) *SyntheticLM {
	m, err := newSyntheticLM(seed, vocab, branch, sharpness, tail)
	if err != nil {
		panic(err)
	}
	return m
}

// Dist implements Model: candidate tokens are chosen by hashing the context;
// Zipf weights are assigned in hash order so the distribution is a
// deterministic function of (model seed, request seed, history window).
// The candidates are generated on demand in the model's token buffer, so no
// call allocates.
func (m *SyntheticLM) Dist(ctx Context) Dist {
	m.g.restart(ctx.hash(m.seed))
	return Dist{g: &m.g}
}

// DraftLM approximates a target model with tunable alignment, mimicking a
// small same-family (or distilled) draft model.
//
// Real drafts agree with their targets on "easy" tokens and are confidently
// wrong on hard ones; uniform smoothing cannot express that (it never
// changes the argmax, making greedy chains accept with probability ~1).
// DraftLM therefore models alignment per context:
//
//   - with probability alpha (hash-determined per context), the draft's
//     distribution equals the target's — its proposals verify with
//     probability ≈ 1;
//   - otherwise the draft is mistaken: its top-ranked token is swapped with
//     a lower-ranked one, so its argmax carries high draft confidence but
//     low target probability (rejected most of the time), while the
//     target's true argmax hides at a lower draft rank — the case where
//     tree speculation recovers and sequence speculation stalls.
//
// Either way rank r carries the target's rank-r weight, so the draft's
// probability at a rank never depends on the context (see RankProbs).
//
// alpha = 1 is a perfect draft; alpha = 0 disagrees everywhere.
type DraftLM struct {
	target *SyntheticLM
	alpha  float64
	seed   uint64
	// g is the draft's own token buffer: it generates the target's
	// candidates, so a draft Dist call leaves the target's buffer alone.
	g ranks
}

// newDraftLM builds a draft for target with the given per-context agreement
// rate alpha in [0, 1]. seed controls which contexts the draft gets wrong.
func newDraftLM(target *SyntheticLM, alpha float64, seed uint64) (*DraftLM, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("lm: alpha %g out of [0,1]", alpha)
	}
	return &DraftLM{target: target, alpha: alpha, seed: seed, g: newRanks(target)}, nil
}

// MustDraftLM panics on construction error.
func MustDraftLM(target *SyntheticLM, alpha float64, seed uint64) *DraftLM {
	d, err := newDraftLM(target, alpha, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// RankProbs returns the probability at each rank of every draft Dist, in
// rank order: the target's strictly decreasing rank weights. The slice is
// shared and read-only.
func (d *DraftLM) RankProbs() []float64 { return d.target.weights }

// Dist implements Model. The draft generates the target's candidates for
// ctx in its own token buffer; a mistaken context only remaps ranks, so no
// call allocates.
func (d *DraftLM) Dist(ctx Context) Dist {
	hd := ctx.hash(d.seed)
	d.g.restart(ctx.hash(d.target.seed))
	u := float64(hd>>11) / (1 << 53)
	if u < d.alpha || d.target.branch < 2 {
		return Dist{g: &d.g}
	}
	// Mistaken context: swap the top token with a lower-ranked candidate
	// (rank drawn from the context hash, biased toward nearby ranks —
	// distilled drafts are near-misses far more often than wildly wrong,
	// which is what makes width-w tree speculation able to recover where
	// sequence speculation stalls). The weights are strictly decreasing, so
	// swapping the probabilities of ranks 0 and j and re-sorting is exactly
	// a swap of the two tokens' positions.
	return Dist{g: &d.g, swap: disagreeRank(mathutil.SplitMix64(hd), d.target.branch-1)}
}

// disagreeRank draws the target rank a mistaken draft confuses with the top:
// rank 1 (the runner-up) 55% of the time, rank 2 25%, rank 3 10%, deeper
// ranks the remainder — matching how distilled drafts err.
func disagreeRank(h uint64, maxRank int) int {
	if maxRank < 1 {
		return 1
	}
	r := int(h % 100)
	var j int
	switch {
	case r < 55:
		j = 1
	case r < 80:
		j = 2
	case r < 90:
		j = 3
	default:
		j = 4 + int(mathutil.SplitMix64(h+1)%3)
	}
	if j > maxRank {
		j = maxRank
	}
	return j
}
