package lm

import (
	"testing"

	"adaserve/internal/mathutil"
)

// distsEqual compares two distributions entry-by-entry (order included).
func distsEqual(a, b Dist) bool {
	if len(a.Entries) != len(b.Entries) || a.Tail != b.Tail || a.Vocab != b.Vocab {
		return false
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			return false
		}
	}
	return true
}

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

// TestDistCacheExact verifies a cached model agrees byte-for-byte with an
// identically seeded uncached one over a decoding-shaped context stream.
func TestDistCacheExact(t *testing.T) {
	cached := MustSyntheticLM("m", 3, 4096, 16, 3.2, 0.02)
	plain := MustSyntheticLM("m", 3, 4096, 16, 3.2, 0.02)
	plain.SetDistCacheSize(0)
	walkContexts(300, func(ctx Context) {
		if !distsEqual(cached.Dist(ctx), plain.Dist(ctx)) {
			t.Fatalf("cached dist differs at ctx %+v", ctx)
		}
	})
	if hits, _ := cached.CacheStats(); hits == 0 {
		t.Fatal("cache never hit — test exercised nothing")
	}
	if hits, misses := plain.CacheStats(); hits != 0 || misses != 0 {
		t.Fatalf("disabled cache recorded activity: %d hits %d misses", hits, misses)
	}
}

// TestDistCacheEvictionCorrectness forces constant eviction with a 1-slot
// cache: results must still be exact (the cache validates full keys, never
// trusts the slot).
func TestDistCacheEvictionCorrectness(t *testing.T) {
	tiny := MustSyntheticLM("m", 5, 4096, 16, 3.2, 0.02)
	tiny.SetDistCacheSize(1)
	plain := MustSyntheticLM("m", 5, 4096, 16, 3.2, 0.02)
	plain.SetDistCacheSize(0)
	// Alternate between two contexts so the single slot thrashes.
	a, b := Context{ReqSeed: 1}, Context{ReqSeed: 2}
	for i := 0; i < 50; i++ {
		if !distsEqual(tiny.Dist(a), plain.Dist(a)) {
			t.Fatal("evicting cache corrupted dist for ctx a")
		}
		if !distsEqual(tiny.Dist(b), plain.Dist(b)) {
			t.Fatal("evicting cache corrupted dist for ctx b")
		}
	}
	if _, misses := tiny.CacheStats(); misses < 2 {
		t.Fatalf("expected eviction-driven misses, got %d", misses)
	}
}

// TestDraftCacheExact is TestDistCacheExact for the draft model, whose cache
// is keyed on the (draft hash, target hash) pair.
func TestDraftCacheExact(t *testing.T) {
	targetA := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	targetB := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	targetB.SetDistCacheSize(0)
	cached := MustDraftLM("d", targetA, 0.85, 9)
	plain := MustDraftLM("d", targetB, 0.85, 9)
	plain.SetDistCacheSize(0)
	walkContexts(300, func(ctx Context) {
		if !distsEqual(cached.Dist(ctx), plain.Dist(ctx)) {
			t.Fatalf("cached draft dist differs at ctx %+v", ctx)
		}
	})
	if hits, _ := cached.CacheStats(); hits == 0 {
		t.Fatal("draft cache never hit")
	}
}

// TestDraftSortFreePathMatchesSort pins the sort-free mistaken-draft
// construction (strictly decreasing Zipf weights) against the reference
// sort-based path, which still runs for non-strict weight tables.
func TestDraftSortFreePathMatchesSort(t *testing.T) {
	target := MustSyntheticLM("t", 7, 4096, 16, 3.2, 0.02)
	if !target.strictOrder {
		t.Fatal("sharpness 3.2 should produce strictly decreasing weights")
	}
	draft := MustDraftLM("d", target, 0.0, 11) // mistaken everywhere
	draft.SetDistCacheSize(0)
	ref := MustDraftLM("d", target, 0.0, 11)
	ref.SetDistCacheSize(0)
	walkContexts(200, func(ctx Context) {
		got := draft.Dist(ctx)
		// Reference: recompute via the generic sort path.
		target.strictOrder = false
		want := ref.Dist(ctx)
		target.strictOrder = true
		if !distsEqual(got, want) {
			t.Fatalf("sort-free draft path diverged at ctx %+v:\n got %v\nwant %v",
				ctx, got.Entries, want.Entries)
		}
	})
}

// TestUniformWeightsUseSortPath covers the non-strict fallback end to end:
// sharpness 0 gives equal weights, where the mistaken-draft "swap" is an
// identity on probabilities and the stable sort orders tokens ascending.
func TestUniformWeightsUseSortPath(t *testing.T) {
	target := MustSyntheticLM("t", 7, 256, 8, 0, 0.02)
	if target.strictOrder {
		t.Fatal("sharpness 0 should not report strictly decreasing weights")
	}
	draft := MustDraftLM("d", target, 0.0, 11)
	for i := uint64(0); i < 50; i++ {
		d := draft.Dist(Context{ReqSeed: i})
		if err := d.Validate(); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
}

// TestWarmMissAllocatesNothing pins the slab design: once a cache has taken
// its first miss, further misses over fresh contexts build their entries in
// the slab and allocate nothing, for the target and for the draft (whose
// miss also misses in the target).
func TestWarmMissAllocatesNothing(t *testing.T) {
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM("d", target, 0.5, 9)
	seed := uint64(0)
	for _, c := range []struct {
		name  string
		model Model
	}{{"target", target}, {"draft", draft}} {
		_, missesBefore := target.CacheStats()
		allocs := testing.AllocsPerRun(500, func() {
			seed++
			_ = c.model.Dist(Context{ReqSeed: seed})
		})
		if allocs != 0 {
			t.Errorf("%s: warm cache miss allocated %.1f times per call", c.name, allocs)
		}
		if _, misses := target.CacheStats(); misses-missesBefore < 500 {
			t.Errorf("%s: only %d target misses — test exercised the hit path", c.name, misses-missesBefore)
		}
	}
}

// TestCachesAllocateLazily checks that constructing a model allocates no
// slots or slab: a model that is never queried holds no cache memory.
func TestCachesAllocateLazily(t *testing.T) {
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	draft := MustDraftLM("d", target, 0.5, 9)
	if target.cache.slots != nil || target.cache.slab != nil ||
		draft.cache.slots != nil || draft.cache.slab != nil {
		t.Fatal("cache storage allocated at construction")
	}
	_ = target.Dist(Context{ReqSeed: 1})
	if target.cache.slab == nil {
		t.Fatal("target slab not allocated by its first miss")
	}
	if draft.cache.slab != nil {
		t.Fatal("draft slab allocated by a target-only query")
	}
}

// TestDraftEntriesSurviveTargetEviction covers the slab's aliasing hazard: a
// draft entry built from the target's distribution must own its entries, so
// that evicting the target's slot (a 1-slot target cache evicts on every new
// context) cannot rewrite a cached draft distribution — whether the draft
// agreed with the target or swapped it.
func TestDraftEntriesSurviveTargetEviction(t *testing.T) {
	target := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	target.SetDistCacheSize(1)
	draft := MustDraftLM("d", target, 0.5, 9)
	refTarget := MustSyntheticLM("t", 3, 4096, 16, 3.2, 0.02)
	refTarget.SetDistCacheSize(0)
	ref := MustDraftLM("d", refTarget, 0.5, 9)
	ref.SetDistCacheSize(0)

	// Find one agreeing and one mistaken context.
	var agree, mistaken Context
	found := 0
	for seed := uint64(1); found != 3; seed++ {
		ctx := Context{ReqSeed: seed}
		same := distsEqual(ref.Dist(ctx), refTarget.Dist(ctx))
		switch {
		case same && found&1 == 0:
			agree, found = ctx, found|1
		case !same && found&2 == 0:
			mistaken, found = ctx, found|2
		}
	}
	for _, ctx := range []Context{agree, mistaken} {
		_ = draft.Dist(ctx)
		// Evict the target's only slot with fresh contexts.
		for s := uint64(0); s < 8; s++ {
			_ = target.Dist(NewContext(1<<40, []Token{Token(s)}))
		}
		hits, _ := draft.CacheStats()
		got := draft.Dist(ctx)
		if h, _ := draft.CacheStats(); h != hits+1 {
			t.Fatal("draft lookup missed — test exercised nothing")
		}
		if !distsEqual(got, ref.Dist(ctx)) {
			t.Fatalf("cached draft dist at %+v rewritten by target eviction:\n got %v\nwant %v",
				ctx, got.Entries, ref.Dist(ctx).Entries)
		}
	}
}

// TestSampleTailAvoidsCandidates verifies the tail fallback fix: a tail draw
// must land outside the candidate set (the old code could return a candidate,
// double-counting its mass).
func TestSampleTailAvoidsCandidates(t *testing.T) {
	// Large tail and tiny vocab make tail hits and collisions frequent.
	m := MustSyntheticLM("m", 1, 32, 8, 1.0, 0.4)
	d := m.Dist(Context{ReqSeed: 2})
	cand := make(map[Token]bool, len(d.Entries))
	for _, e := range d.Entries {
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
	for _, e := range d.Entries {
		got := float64(counts[e.Token]) / n
		if diff := got - e.Prob; diff > 0.01 || diff < -0.01 {
			t.Fatalf("token %d sampled %.3f, want %.3f", e.Token, got, e.Prob)
		}
	}
	// Each non-candidate should get roughly tail/(vocab-branch) mass.
	per := d.Tail / float64(d.Vocab-len(d.Entries))
	for tok := Token(0); tok < Token(d.Vocab); tok++ {
		if cand[tok] {
			continue
		}
		got := float64(counts[tok]) / n
		if diff := got - per; diff > 0.01 || diff < -0.01 {
			t.Fatalf("tail token %d sampled %.4f, want ≈ %.4f", tok, got, per)
		}
	}
}
