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
// memoized. Each model owns one branch-sized entry buffer, allocated in its
// constructor, and every Dist call builds its distribution straight into
// that buffer, so no call allocates. The price is a lifetime contract: a
// Dist returned by a model is valid until that model's next Dist call (see
// Dist). Context itself is a small value type carrying only the
// historyWindow-sized suffix that conditions the distribution, so extending
// a context allocates nothing. Models are NOT safe for concurrent use: give
// each goroutine its own engine/models, as the parallel experiment runner
// does.
package lm

import (
	"fmt"
	"sort"

	"adaserve/internal/mathutil"
)

// Token is a vocabulary item. Valid tokens are in [0, VocabSize).
type Token int32

// TokenProb pairs a token with its probability under some distribution.
type TokenProb struct {
	Token Token
	Prob  float64
}

// Dist is a truncated next-token distribution: explicit probabilities for a
// small candidate set plus tail mass smeared uniformly over the rest of the
// vocabulary. Entries are sorted by descending probability.
//
// Lifetime: the Entries of a Dist returned by a model live in the model's
// own entry buffer and are read-only. They are valid until that model's
// next Dist call, which rebuilds the buffer in place; a DraftLM's Dist call
// consults its target, so it counts as a call on the target too. Callers
// that keep entries longer must copy them (TopK does).
type Dist struct {
	Entries []TokenProb
	// tail is the probability mass not covered by Entries.
	tail float64
	// vocab is the vocabulary size (for tail token sampling).
	vocab int
}

// validate checks that the distribution is normalized and sorted. Kept as an
// invariant check for the lm tests and FuzzDistSample; no binary links it.
func (d Dist) validate() error {
	var s float64
	prev := 1.1
	for _, e := range d.Entries {
		if e.Prob < 0 {
			return fmt.Errorf("lm: negative probability %g", e.Prob)
		}
		if e.Prob > prev+1e-12 {
			return fmt.Errorf("lm: entries not sorted descending")
		}
		prev = e.Prob
		s += e.Prob
	}
	s += d.tail
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("lm: distribution sums to %g", s)
	}
	return nil
}

// TopK returns up to k highest-probability entries.
func (d Dist) TopK(k int) []TokenProb {
	if k > len(d.Entries) {
		k = len(d.Entries)
	}
	out := make([]TokenProb, k)
	copy(out, d.Entries[:k])
	return out
}

// Argmax returns the most likely token.
func (d Dist) Argmax() Token {
	if len(d.Entries) == 0 {
		return 0
	}
	return d.Entries[0].Token
}

// Sample draws a token from d using rng.
func (d Dist) Sample(rng *mathutil.RNG) Token {
	u := rng.Float64()
	var acc float64
	for _, e := range d.Entries {
		acc += e.Prob
		if u < acc {
			return e.Token
		}
	}
	return d.sampleTail(rng)
}

// sampleTail draws uniformly over the NON-candidate tokens: the tail mass
// belongs exclusively to tokens outside the candidate set, so a draw that
// landed in the tail must never return a candidate (returning one would
// double-count its mass on top of its explicit entry).
func (d Dist) sampleTail(rng *mathutil.RNG) Token {
	free := d.vocab - len(d.Entries)
	if free <= 0 {
		// No non-candidate tokens exist (or the distribution is degenerate):
		// fall back to the least likely candidate.
		if len(d.Entries) > 0 {
			return d.Entries[len(d.Entries)-1].Token
		}
		return 0
	}
	return nthFree(Token(rng.Intn(free)), d.Entries)
}

// nthFree returns the r-th smallest (0-based) token not among the distinct
// tokens of taken: the least fixpoint of v = r + #(taken tokens <= v).
// Iterating from r converges in at most len(taken)+1 rounds and needs no
// sorted order.
func nthFree(r Token, taken []TokenProb) Token {
	v := r
	for {
		cnt := Token(0)
		for _, e := range taken {
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

// Last returns the newest history token; ok is false for an empty history.
func (c Context) Last() (tok Token, ok bool) {
	if c.n == 0 {
		return 0, false
	}
	return c.win[c.n-1], true
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
	// weights are the Zipf weights shared by every context (the permutation
	// of which tokens get them is context-dependent).
	weights []float64
	// tail is the mass reserved outside the candidate set.
	tail float64
	// strictOrder reports that weights are strictly decreasing, which lets
	// DraftLM rebuild mistaken distributions by swapping token positions
	// instead of sorting.
	strictOrder bool
	// buf is the branch-capacity entry buffer every Dist call builds into.
	buf []TokenProb
}

// newSyntheticLM constructs a target model.
//
//   - vocab: vocabulary size (e.g. 4096; the serving layer never enumerates it).
//   - branch: candidate tokens per context (e.g. 16).
//   - sharpness: Zipf exponent; higher concentrates mass on the top token.
//     sharpness ≈ 1.6 yields top-1 probability ≈ 0.6, typical of instruct
//     LLMs under greedy-ish sampling.
//   - tail: probability mass outside the candidate set (e.g. 0.02).
func newSyntheticLM(seed uint64, vocab, branch int, sharpness, tail float64) (*SyntheticLM, error) {
	if vocab < 2 || branch < 1 || branch > vocab {
		return nil, fmt.Errorf("lm: bad vocab/branch %d/%d", vocab, branch)
	}
	if tail < 0 || tail >= 1 {
		return nil, fmt.Errorf("lm: tail %g out of [0,1)", tail)
	}
	w := mathutil.ZipfWeights(branch, sharpness)
	for i := range w {
		w[i] *= 1 - tail
	}
	strict := true
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			strict = false
			break
		}
	}
	return &SyntheticLM{
		seed: seed, vocab: vocab, branch: branch,
		weights: w, tail: tail, strictOrder: strict,
		buf: make([]TokenProb, 0, branch),
	}, nil
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
// The result is built in the model's entry buffer, so no call allocates.
func (m *SyntheticLM) Dist(ctx Context) Dist {
	return m.computeDist(ctx.hash(m.seed))
}

// computeDist materializes the distribution for a context hash into the
// model's entry buffer. Candidate dedup uses a linear scan (branch is
// small), not a map, so nothing is allocated.
func (m *SyntheticLM) computeDist(h uint64) Dist {
	entries := m.buf[:0]
	x := h
	for len(entries) < m.branch {
		x = mathutil.SplitMix64(x)
		tok := Token(x % uint64(m.vocab))
		dup := false
		for i := range entries {
			if entries[i].Token == tok {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		entries = append(entries, TokenProb{Token: tok, Prob: m.weights[len(entries)]})
	}
	return Dist{Entries: entries, tail: m.tail, vocab: m.vocab}
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
// alpha = 1 is a perfect draft; alpha = 0 disagrees everywhere.
type DraftLM struct {
	target *SyntheticLM
	alpha  float64
	seed   uint64
	// buf is the branch-capacity entry buffer every Dist call builds into.
	buf []TokenProb
}

// newDraftLM builds a draft for target with the given per-context agreement
// rate alpha in [0, 1]. seed controls which contexts the draft gets wrong.
func newDraftLM(target *SyntheticLM, alpha float64, seed uint64) (*DraftLM, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("lm: alpha %g out of [0,1]", alpha)
	}
	return &DraftLM{
		target: target, alpha: alpha, seed: seed,
		buf: make([]TokenProb, 0, target.branch),
	}, nil
}

// MustDraftLM panics on construction error.
func MustDraftLM(target *SyntheticLM, alpha float64, seed uint64) *DraftLM {
	d, err := newDraftLM(target, alpha, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// Dist implements Model. The result is built in the draft's entry buffer,
// so no call allocates.
func (d *DraftLM) Dist(ctx Context) Dist {
	return d.computeDist(ctx.hash(d.seed), ctx.hash(d.target.seed))
}

// computeDist materializes the draft distribution for the context hash pair
// into the draft's entry buffer.
func (d *DraftLM) computeDist(hd, ht uint64) Dist {
	p := d.target.computeDist(ht)
	// Copy even when the draft agrees: p lives in the target's buffer, which
	// the target's next Dist call rebuilds, while this result must stay
	// valid until the draft's own next call.
	entries := append(d.buf[:0], p.Entries...)
	u := float64(hd>>11) / (1 << 53)
	if u < d.alpha || len(entries) < 2 {
		return Dist{Entries: entries, tail: p.tail, vocab: p.vocab}
	}
	// Mistaken context: swap the top token's probability with that of a
	// lower-ranked candidate (rank drawn from the context hash, biased
	// toward nearby ranks — distilled drafts are near-misses far more often
	// than wildly wrong, which is what makes width-w tree speculation able
	// to recover where sequence speculation stalls).
	j := disagreeRank(mathutil.SplitMix64(hd), len(entries)-1)
	if d.target.strictOrder {
		// With strictly decreasing weights, swapping the probabilities at
		// ranks 0 and j and re-sorting is exactly a swap of the two tokens'
		// positions (probabilities stay the rank-ordered weights).
		entries[0].Token, entries[j].Token = entries[j].Token, entries[0].Token
	} else {
		entries[0].Prob, entries[j].Prob = entries[j].Prob, entries[0].Prob
		sort.SliceStable(entries, func(a, b int) bool {
			if entries[a].Prob != entries[b].Prob {
				return entries[a].Prob > entries[b].Prob
			}
			return entries[a].Token < entries[b].Token
		})
	}
	return Dist{Entries: entries, tail: p.tail, vocab: p.vocab}
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
