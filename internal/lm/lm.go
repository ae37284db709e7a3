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
// 64-bit context hash, so both models memoize distributions behind a
// fixed-size direct-mapped cache keyed on that hash (exact — entries are
// validated by full key comparison, never by slot alone). Each cache owns a
// slab of entries, one fixed region per slot, allocated on its first miss;
// a miss builds the distribution straight into its slot's region, so once
// warm neither a hit nor a miss allocates. The price is a lifetime contract:
// a Dist returned by a model is valid until that model's next Dist call
// (see Dist). Context itself is a small value type carrying only the
// HistoryWindow-sized suffix that conditions the distribution, so extending
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
// small candidate set plus Tail mass smeared uniformly over the rest of the
// vocabulary. Entries are sorted by descending probability.
//
// Lifetime: the Entries of a Dist returned by a model live in the model's
// cache and are read-only. They are valid until that model's next Dist
// call, which may evict the slot and rebuild its entries in place; a
// DraftLM's Dist call consults its target, so it counts as a call on the
// target too. Callers that keep entries longer must copy them (TopK does).
type Dist struct {
	Entries []TokenProb
	// Tail is the probability mass not covered by Entries.
	Tail float64
	// Vocab is the vocabulary size (for tail token sampling).
	Vocab int
}

// Validate checks that the distribution is normalized and sorted.
func (d Dist) Validate() error {
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
	s += d.Tail
	if s < 0.999 || s > 1.001 {
		return fmt.Errorf("lm: distribution sums to %g", s)
	}
	return nil
}

// Prob returns the probability of tok under d: a linear scan of the small
// candidate set, else tok's uniform share of the tail.
func (d Dist) Prob(tok Token) float64 {
	for _, e := range d.Entries {
		if e.Token == tok {
			return e.Prob
		}
	}
	if d.Vocab <= len(d.Entries) {
		return 0
	}
	return d.Tail / float64(d.Vocab-len(d.Entries))
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
	free := d.Vocab - len(d.Entries)
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

// HistoryWindow is how many trailing tokens condition the next-token
// distribution.
const HistoryWindow = 4

// Context identifies a decoding position: the request's own seed (so two
// requests with identical recent tokens still have independent text) plus
// the trailing HistoryWindow tokens of the generated history (an order-n
// Markov approximation — only the window conditions the distribution, so
// only the window is stored). Context is a small value type: Extend never
// allocates, and contexts compare with ==.
type Context struct {
	ReqSeed uint64
	// win holds the most recent min(n, HistoryWindow) history tokens, oldest
	// first.
	win [HistoryWindow]Token
	// n is the number of valid tokens in win.
	n uint8
}

// NewContext builds a context from a request seed and a full (or partial)
// generated history; only the trailing HistoryWindow tokens are retained.
func NewContext(seed uint64, hist []Token) Context {
	c := Context{ReqSeed: seed}
	start := len(hist) - HistoryWindow
	if start < 0 {
		start = 0
	}
	for _, t := range hist[start:] {
		c.win[c.n] = t
		c.n++
	}
	return c
}

// Extend returns a context with one more history token appended. Pure value
// semantics: the receiver is unchanged and nothing is allocated.
func (c Context) Extend(tok Token) Context {
	if int(c.n) < HistoryWindow {
		c.win[c.n] = tok
		c.n++
		return c
	}
	copy(c.win[:], c.win[1:])
	c.win[HistoryWindow-1] = tok
	return c
}

// Window returns a copy of the retained history window, oldest first.
func (c Context) Window() []Token {
	return append([]Token(nil), c.win[:c.n]...)
}

// WindowLen returns how many history tokens the context retains
// (min(history length, HistoryWindow)).
func (c Context) WindowLen() int { return int(c.n) }

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
	// Vocab returns the vocabulary size.
	Vocab() int
	// Name identifies the model in logs and metrics.
	Name() string
}

// SyntheticLM is the target ("large") model.
type SyntheticLM struct {
	name string
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
	// cache memoizes hash -> distribution (nil when disabled).
	cache *distCache
}

// NewSyntheticLM constructs a target model.
//
//   - vocab: vocabulary size (e.g. 4096; the serving layer never enumerates it).
//   - branch: candidate tokens per context (e.g. 16).
//   - sharpness: Zipf exponent; higher concentrates mass on the top token.
//     sharpness ≈ 1.6 yields top-1 probability ≈ 0.6, typical of instruct
//     LLMs under greedy-ish sampling.
//   - tail: probability mass outside the candidate set (e.g. 0.02).
func NewSyntheticLM(name string, seed uint64, vocab, branch int, sharpness, tail float64) (*SyntheticLM, error) {
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
		name: name, seed: seed, vocab: vocab, branch: branch,
		weights: w, tail: tail, strictOrder: strict,
		cache: newDistCache(DefaultDistCacheSize),
	}, nil
}

// MustSyntheticLM panics on construction error; for fixed experiment setups.
func MustSyntheticLM(name string, seed uint64, vocab, branch int, sharpness, tail float64) *SyntheticLM {
	m, err := NewSyntheticLM(name, seed, vocab, branch, sharpness, tail)
	if err != nil {
		panic(err)
	}
	return m
}

// Name implements Model.
func (m *SyntheticLM) Name() string { return m.name }

// Vocab implements Model.
func (m *SyntheticLM) Vocab() int { return m.vocab }

// SetDistCacheSize resizes (and clears) the model's distribution cache. The
// size is rounded up to a power of two; size <= 0 disables caching (every
// Dist call recomputes into freshly allocated entries — the independent
// reference path cached runs must match byte-for-byte).
func (m *SyntheticLM) SetDistCacheSize(size int) { m.cache = newDistCache(size) }

// CacheStats returns cumulative (hits, misses) of the distribution cache.
func (m *SyntheticLM) CacheStats() (hits, misses uint64) { return m.cache.stats() }

// Dist implements Model: candidate tokens are chosen by hashing the context;
// Zipf weights are assigned in hash order so the distribution is a
// deterministic function of (model seed, request seed, history window).
// Results are memoized by context hash; once the cache is warm, neither a
// hit nor a miss allocates.
func (m *SyntheticLM) Dist(ctx Context) Dist {
	return m.distForHash(ctx.hash(m.seed))
}

// distForHash returns the (possibly cached) distribution for a context hash.
func (m *SyntheticLM) distForHash(h uint64) Dist {
	if d, ok := m.cache.get(h, 0); ok {
		return d
	}
	d := m.computeDist(h, m.cache.region(h, 0, m.branch))
	m.cache.put(h, 0, d)
	return d
}

// computeDist materializes the distribution for a context hash into entries,
// an empty buffer of capacity branch. Candidate dedup uses a linear scan
// (branch is small), not a map, so nothing is allocated.
func (m *SyntheticLM) computeDist(h uint64, entries []TokenProb) Dist {
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
	return Dist{Entries: entries, Tail: m.tail, Vocab: m.vocab}
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
	name   string
	target *SyntheticLM
	alpha  float64
	seed   uint64
	// cache memoizes (draft hash, target hash) -> distribution. The pair
	// fully determines the output, so caching is exact.
	cache *distCache
}

// NewDraftLM builds a draft for target with the given per-context agreement
// rate alpha in [0, 1]. seed controls which contexts the draft gets wrong.
func NewDraftLM(name string, target *SyntheticLM, alpha float64, seed uint64) (*DraftLM, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("lm: alpha %g out of [0,1]", alpha)
	}
	return &DraftLM{
		name: name, target: target, alpha: alpha, seed: seed,
		cache: newDistCache(DefaultDistCacheSize),
	}, nil
}

// MustDraftLM panics on construction error.
func MustDraftLM(name string, target *SyntheticLM, alpha float64, seed uint64) *DraftLM {
	d, err := NewDraftLM(name, target, alpha, seed)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Model.
func (d *DraftLM) Name() string { return d.name }

// Vocab implements Model.
func (d *DraftLM) Vocab() int { return d.target.vocab }

// Alpha returns the draft/target per-context agreement rate.
func (d *DraftLM) Alpha() float64 { return d.alpha }

// SetDistCacheSize resizes (and clears) the draft's distribution cache;
// size <= 0 disables caching (see SyntheticLM.SetDistCacheSize).
func (d *DraftLM) SetDistCacheSize(size int) { d.cache = newDistCache(size) }

// CacheStats returns cumulative (hits, misses) of the draft's cache.
func (d *DraftLM) CacheStats() (hits, misses uint64) { return d.cache.stats() }

// Dist implements Model. Results are memoized by the (draft, target) context
// hash pair; once the draft's and target's caches are warm, neither a hit
// nor a miss allocates.
func (d *DraftLM) Dist(ctx Context) Dist {
	hd := ctx.hash(d.seed)
	ht := ctx.hash(d.target.seed)
	if dist, ok := d.cache.get(hd, ht); ok {
		return dist
	}
	dist := d.computeDist(hd, ht, d.cache.region(hd, ht, d.target.branch))
	d.cache.put(hd, ht, dist)
	return dist
}

// computeDist materializes the draft distribution for the context hash pair
// into entries, an empty buffer of capacity branch.
func (d *DraftLM) computeDist(hd, ht uint64, entries []TokenProb) Dist {
	p := d.target.distForHash(ht)
	// Copy even when the draft agrees: p lives in the target's cache, where
	// a later target miss on the same slot would rebuild it underneath this
	// draft's cached entry.
	entries = append(entries, p.Entries...)
	u := float64(hd>>11) / (1 << 53)
	if u < d.alpha || len(entries) < 2 {
		return Dist{Entries: entries, Tail: p.Tail, Vocab: p.Vocab}
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
	return Dist{Entries: entries, Tail: p.Tail, Vocab: p.Vocab}
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
