package lm

import (
	"testing"

	"adaserve/internal/mathutil"
)

// cloneDist copies d's entries out of the model buffer they live in, so d
// stays valid across later Dist calls.
func cloneDist(d Dist) Dist {
	d.Entries = append([]TokenProb(nil), d.Entries...)
	return d
}

// prob returns the probability of tok under d: a linear scan of the small
// candidate set, else tok's uniform share of the tail. It is
// FuzzDistSample's mass oracle.
func prob(d Dist, tok Token) float64 {
	for _, e := range d.Entries {
		if e.Token == tok {
			return e.Prob
		}
	}
	if d.vocab <= len(d.Entries) {
		return 0
	}
	return d.tail / float64(d.vocab-len(d.Entries))
}

// freshModel wraps a model and clones every Dist it returns: the aliasing
// reference, whose results no later call can rebuild in place.
type freshModel struct{ Model }

func (f freshModel) Dist(ctx Context) Dist { return cloneDist(f.Model.Dist(ctx)) }

// distsEqual compares two distributions entry-by-entry (order included).
func distsEqual(a, b Dist) bool {
	if len(a.Entries) != len(b.Entries) || a.tail != b.tail || a.vocab != b.vocab {
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

// TestDraftSortFreePathMatchesSort pins the sort-free mistaken-draft
// construction (strictly decreasing Zipf weights) against the reference
// sort-based path, which still runs for non-strict weight tables.
func TestDraftSortFreePathMatchesSort(t *testing.T) {
	target := MustSyntheticLM(7, 4096, 16, 3.2, 0.02)
	if !target.strictOrder {
		t.Fatal("sharpness 3.2 should produce strictly decreasing weights")
	}
	draft := MustDraftLM(target, 0.0, 11) // mistaken everywhere
	ref := MustDraftLM(target, 0.0, 11)
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
	target := MustSyntheticLM(7, 256, 8, 0, 0.02)
	if target.strictOrder {
		t.Fatal("sharpness 0 should not report strictly decreasing weights")
	}
	draft := MustDraftLM(target, 0.0, 11)
	for i := uint64(0); i < 50; i++ {
		d := draft.Dist(Context{ReqSeed: i})
		if err := d.validate(); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
}

// TestDistAllocatesNothing pins the model-owned buffers: every Dist call,
// each on a fresh context, builds its entries in the model's buffer and
// allocates nothing, for the target and for the draft (whose call also
// rebuilds the target's buffer).
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
			_ = c.model.Dist(Context{ReqSeed: seed})
		})
		if allocs != 0 {
			t.Errorf("%s: Dist allocated %.1f times per call", c.name, allocs)
		}
	}
}

// TestSampleTailAvoidsCandidates verifies the tail fallback fix: a tail draw
// must land outside the candidate set (the old code could return a candidate,
// double-counting its mass).
func TestSampleTailAvoidsCandidates(t *testing.T) {
	// Large tail and tiny vocab make tail hits and collisions frequent.
	m := MustSyntheticLM(1, 32, 8, 1.0, 0.4)
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
	per := d.tail / float64(d.vocab-len(d.Entries))
	for tok := Token(0); tok < Token(d.vocab); tok++ {
		if cand[tok] {
			continue
		}
		got := float64(counts[tok]) / n
		if diff := got - per; diff > 0.01 || diff < -0.01 {
			t.Fatalf("tail token %d sampled %.4f, want ≈ %.4f", tok, got, per)
		}
	}
}
