package kvcache

import (
	"testing"
	"testing/quick"

	"adaserve/internal/mathutil"
)

// newPrefixAlloc builds an allocator with prefix caching on.
func newPrefixAlloc(t *testing.T, blockSize, numBlocks int, cfg PrefixConfig) *Allocator {
	t.Helper()
	a := newAlloc(t, blockSize, numBlocks)
	if err := a.EnablePrefix(cfg); err != nil {
		t.Fatal(err)
	}
	return a
}

// seeds adapts a materialized token-seed slice to the Prompt interface.
type seeds []uint64

func (s seeds) PromptTokens() int { return len(s) }

func (s seeds) FillPromptSeeds(start int, dst []uint64) { copy(dst, s[start:start+len(dst)]) }

func (s seeds) PromptChain() *Chain { return nil }

// prompt fabricates deterministic token seeds for n tokens of "document" doc.
func prompt(doc uint64, n int) seeds {
	out := make(seeds, n)
	for i := range out {
		out[i] = mathutil.Hash2(doc, uint64(i))
	}
	return out
}

// check fails the test on the first invariant violation.
func check(t *testing.T, a *Allocator) {
	t.Helper()
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateZeroTokens(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 0); err != nil {
		t.Fatal(err)
	}
	if !a.Has(1) || a.usedBlocks() != 0 {
		t.Fatalf("zero-token allocation: has=%v used=%d", a.Has(1), a.usedBlocks())
	}
	if err := a.Allocate(1, 0); err == nil {
		t.Fatal("duplicate zero-token allocation accepted")
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if a.Has(1) {
		t.Fatal("zero-token sequence survived Free")
	}
}

func TestPrefixMatchSkipsSharedBlocks(t *testing.T) {
	a := newPrefixAlloc(t, 4, 16, PrefixConfig{})
	doc := prompt(7, 12)

	hit, err := a.AllocateWithPrefix(1, 12, doc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 0 {
		t.Fatalf("first arrival hit %d tokens", hit.Tokens)
	}
	check(t, a)

	// Until prefill completes the registered blocks are not matchable.
	if n := a.MatchPrefixTokens(doc, len(doc)); n != 0 {
		t.Fatalf("uncomputed blocks matched %d tokens", n)
	}
	a.MarkComputed(1, 12)
	if n := a.MatchPrefixTokens(doc, len(doc)); n != 12 {
		t.Fatalf("computed prefix matches %d tokens, want 12", n)
	}

	used := a.usedBlocks()
	hit, err = a.AllocateWithPrefix(2, 12, doc, 12)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 12 || hit.reloaded != 0 || hit.Stall != 0 {
		t.Fatalf("second arrival hit %+v, want 12 cached tokens", hit)
	}
	if a.usedBlocks() != used {
		t.Fatalf("full-prefix hit consumed blocks: %d -> %d", used, a.usedBlocks())
	}
	bt1, bt2 := a.seqs[1].blocks, a.seqs[2].blocks
	for i := range bt2 {
		if bt1[i] != bt2[i] {
			t.Fatalf("shared prefix maps to different blocks: %v vs %v", bt1, bt2)
		}
	}
	check(t, a)

	st := a.PrefixStats()
	if st.Lookups != 1 || st.Hits != 1 || st.HitTokens != 12 {
		t.Fatalf("stats %+v", st)
	}

	// matchLimit caps the hit at full blocks below the limit: with limit 11
	// only the first two 4-token blocks may match.
	hit, err = a.AllocateWithPrefix(3, 12, doc, 11)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Tokens != 8 {
		t.Fatalf("limit-11 hit %d tokens, want 8", hit.Tokens)
	}
	check(t, a)
}

func TestPrefixEvictionDemotionAndReload(t *testing.T) {
	stall := 0.0125
	a := newPrefixAlloc(t, 4, 4, PrefixConfig{
		HostBlocks:    2,
		ReloadLatency: func(tokens int) float64 { return stall * float64(tokens) / 4 },
	})
	docA, docB := prompt(1, 8), prompt(2, 16)

	// A's two blocks go cold on Free: still GPU-resident and matchable.
	if _, err := a.AllocateWithPrefix(1, 8, docA, 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if a.prefix.cold.n != 2 || a.MatchPrefixTokens(docA, len(docA)) != 8 {
		t.Fatalf("cold=%d match=%d after free", a.prefix.cold.n, a.MatchPrefixTokens(docA, len(docA)))
	}

	// B needs the whole pool: both cold blocks are reclaimed and demote to
	// the host tier, where they remain matchable.
	if _, err := a.AllocateWithPrefix(2, 16, docB, 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || st.HostEvictions != 0 || a.prefix.host.n != 2 {
		t.Fatalf("after pressure: %+v, host %d", st, a.prefix.host.n)
	}
	if a.MatchPrefixTokens(docA, len(docA)) != 8 {
		t.Fatal("host-resident prefix no longer matchable")
	}
	if err := a.Free(2); err != nil {
		t.Fatal(err)
	}
	check(t, a)

	// A's return pays the reload: both blocks promote back to the GPU and the
	// hit carries the priced stall.
	hit, err := a.AllocateWithPrefix(3, 8, docA, 8)
	if err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if hit.Tokens != 8 || hit.reloaded != 8 {
		t.Fatalf("reload hit %+v, want 8 tokens all reloaded", hit)
	}
	if want := stall * 2; hit.Stall != want {
		t.Fatalf("stall %g, want %g", hit.Stall, want)
	}
	st = a.PrefixStats()
	if st.Reloads != 2 || st.ReloadedTokens != 8 || st.ReloadStall != stall*2 {
		t.Fatalf("reload stats %+v", st)
	}
	if a.prefix.host.n != 0 {
		t.Fatalf("host tier still holds %d after reload", a.prefix.host.n)
	}
}

func TestPrefixHostTierOverflowDrops(t *testing.T) {
	a := newPrefixAlloc(t, 4, 2, PrefixConfig{HostBlocks: 1})
	if _, err := a.AllocateWithPrefix(1, 8, prompt(1, 8), 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	// Reclaiming both cold blocks demotes both, but the 1-block tier can only
	// keep the newer one: the older demotion is dropped for good.
	if _, err := a.AllocateWithPrefix(2, 8, prompt(2, 8), 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || st.HostEvictions != 1 || a.prefix.host.n != 1 {
		t.Fatalf("overflow: %+v, host %d", st, a.prefix.host.n)
	}
	// The drop took the chain's FIRST block (demoted earliest, so oldest on
	// the host LRU); the surviving second block is unreachable without its
	// predecessor, because a chained fingerprint match must be contiguous
	// from the prompt start.
	if n := a.MatchPrefixTokens(prompt(1, 8), 8); n != 0 {
		t.Fatalf("broken chain still matches %d tokens", n)
	}
}

func TestPrefixNoTierDropsOnEviction(t *testing.T) {
	a := newPrefixAlloc(t, 4, 2, PrefixConfig{})
	if _, err := a.AllocateWithPrefix(1, 8, prompt(1, 8), 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AllocateWithPrefix(2, 8, prompt(2, 8), 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	st := a.PrefixStats()
	if st.Evictions != 2 || a.prefix.host.n != 0 {
		t.Fatalf("tier-less eviction: %+v, host %d", st, a.prefix.host.n)
	}
	if a.MatchPrefixTokens(prompt(1, 8), 8) != 0 {
		t.Fatal("dropped blocks still match")
	}
}

func TestEnablePrefixValidation(t *testing.T) {
	a := newAlloc(t, 4, 4)
	if err := a.EnablePrefix(PrefixConfig{HostBlocks: -1}); err == nil {
		t.Fatal("negative host tier accepted")
	}
	if err := a.EnablePrefix(PrefixConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := a.EnablePrefix(PrefixConfig{}); err == nil {
		t.Fatal("double enable accepted")
	}
	b := newAlloc(t, 4, 4)
	if err := b.Allocate(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.EnablePrefix(PrefixConfig{}); err == nil {
		t.Fatal("enable on a non-empty allocator accepted")
	}
}

// TestPrefixInvariantProperty drives random allocator operations — prefix
// allocations over a tiny document alphabet (forcing heavy sharing), frees
// and prefill completions — and runs the full checkInvariants
// accounting after every single mutation: refcounts equal actual holders,
// every block has exactly one owner, LRU lists agree with entry states, and
// the host tier respects its bound.
func TestPrefixInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathutil.NewRNG(seed)
		a := MustNew(Config{blockSize: 4, numBlocks: 24})
		if err := a.EnablePrefix(PrefixConfig{HostBlocks: int(rng.Intn(3)) * 4}); err != nil {
			return false
		}
		live := map[int]bool{}
		next := 0
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // allocate with prefix matching
				id := next
				next++
				tokens := rng.Intn(40)
				doc := prompt(uint64(rng.Intn(3)), tokens)
				limit := tokens
				if limit > 0 {
					limit = rng.Intn(tokens + 1)
				}
				if _, err := a.AllocateWithPrefix(id, tokens, doc, limit); err == nil {
					live[id] = true
				}
			case 2: // prefill progress makes blocks matchable
				for id := range live {
					a.MarkComputed(id, rng.Intn(a.seqs[id].tokens+1))
					break
				}
			case 3: // free
				for id := range live {
					if a.Free(id) == nil {
						delete(live, id)
					}
					break
				}
			}
			if err := a.checkInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrefixEnabledReporting(t *testing.T) {
	a := newAlloc(t, 4, 8)
	if a.PrefixEnabled() {
		t.Fatal("fresh allocator reports prefix caching enabled")
	}
	if err := a.EnablePrefix(PrefixConfig{}); err != nil {
		t.Fatal(err)
	}
	if !a.PrefixEnabled() {
		t.Fatal("enabled allocator reports prefix caching disabled")
	}
}

// TestPrefixReloadSurvivesHostOverflow regression-tests an eviction race
// inside AllocateWithPrefix: reloading a matched host-tier block can itself
// demote cold blocks to the host tier, and the resulting overflow drop used
// to claim the oldest host entry — which could be the very entry being
// reloaded, leaving the new sequence chained to a deleted fingerprint and
// the host LRU corrupted by a double remove.
func TestPrefixReloadSurvivesHostOverflow(t *testing.T) {
	a := newPrefixAlloc(t, 4, 3, PrefixConfig{HostBlocks: 1})

	// doc1's single block: computed, freed to cold, then forced to the host
	// tier by a private allocation that drains the pool.
	if _, err := a.AllocateWithPrefix(1, 4, prompt(1, 4), 4); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 4)
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate(90, 12); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(90); err != nil {
		t.Fatal(err)
	}
	if a.prefix.host.n != 1 {
		t.Fatalf("host tier holds %d, want doc1's block", a.prefix.host.n)
	}
	check(t, a)

	// Two more cold single-block entries and a private holder so no free
	// block is left: the doc1 reload below must evict cold blocks, and each
	// eviction demotes into the already-full host tier.
	for doc := uint64(2); doc <= 3; doc++ {
		id := int(doc)
		if _, err := a.AllocateWithPrefix(id, 4, prompt(doc, 4), 4); err != nil {
			t.Fatal(err)
		}
		a.MarkComputed(id, 4)
		if err := a.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Allocate(91, 4); err != nil {
		t.Fatal(err)
	}
	if a.availableBlocks() != 2 || a.prefix.cold.n != 2 {
		t.Fatalf("available %d cold %d, want 2/2 (no free block)", a.availableBlocks(), a.prefix.cold.n)
	}
	check(t, a)

	// Match doc1's host-resident block and extend past it: the reload's own
	// evictions overflow the host tier, but must drop the unmatched cold
	// demotions, never the matched entry.
	hit, err := a.AllocateWithPrefix(4, 8, prompt(1, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	check(t, a)
	if hit.Tokens != 4 || hit.reloaded != 4 {
		t.Fatalf("hit %+v, want 4 cached tokens, all reloaded", hit)
	}
	a.MarkComputed(4, 8)
	if got := a.MatchPrefixTokens(prompt(1, 8), 8); got != 8 {
		t.Fatalf("donor prefix matches %d tokens after reload, want 8", got)
	}
}

// countingPrompt counts the blocks a walk reads from its prompt; chain, when
// set, is the prompt's fingerprint memo.
type countingPrompt struct {
	seeds
	chain *Chain
	fills int
}

func (c *countingPrompt) FillPromptSeeds(start int, dst []uint64) {
	c.fills++
	c.seeds.FillPromptSeeds(start, dst)
}

func (c *countingPrompt) PromptChain() *Chain { return c.chain }

// TestMatchStopsAtFirstMiss pins the streamed walk's cost: a probe reads one
// block per matched block plus the first miss, and a cold cache costs one.
func TestMatchStopsAtFirstMiss(t *testing.T) {
	a := newPrefixAlloc(t, 4, 16, PrefixConfig{})
	probe := &countingPrompt{seeds: prompt(5, 24)}
	if n := a.MatchPrefixTokens(probe, 24); n != 0 || probe.fills != 1 {
		t.Fatalf("cold probe matched %d tokens reading %d blocks, want 0 reading 1", n, probe.fills)
	}
	if _, err := a.AllocateWithPrefix(1, 8, prompt(5, 8), 0); err != nil {
		t.Fatal(err)
	}
	a.MarkComputed(1, 8)
	probe.fills = 0
	if n := a.MatchPrefixTokens(probe, 24); n != 8 || probe.fills != 3 {
		t.Fatalf("warm probe matched %d tokens reading %d blocks, want 8 reading 3", n, probe.fills)
	}
	// The limit bounds the walk: blocks past it are never read.
	probe.fills = 0
	if n := a.MatchPrefixTokens(probe, 7); n != 4 || probe.fills != 1 {
		t.Fatalf("limited probe matched %d tokens reading %d blocks, want 4 reading 1", n, probe.fills)
	}
}

// TestChainHashesEachBlockOnce is TestMatchStopsAtFirstMiss for a chained
// prompt: across a router's probes of eight replicas, the admission on one of
// them, and the next turn's probes of all eight, every block's seeds are
// filled exactly once, and every answer is the unchained prompt's.
func TestChainHashesEachBlockOnce(t *testing.T) {
	const bs = 4
	doc := prompt(9, 32) // the conversation: turn one's 24 tokens, then turn two's 32
	replicas := make([]*Allocator, 8)
	for i := range replicas {
		// Replica i holds the conversation's first min(i, 6) blocks computed.
		replicas[i] = newPrefixAlloc(t, bs, 32, PrefixConfig{})
		if n := min(i, 6) * bs; n > 0 {
			if _, err := replicas[i].AllocateWithPrefix(100, n, doc[:n], 0); err != nil {
				t.Fatal(err)
			}
			replicas[i].MarkComputed(100, n)
		}
	}
	chain := new(Chain)
	probeAll := func(turn *countingPrompt, limit int) {
		t.Helper()
		for i, a := range replicas {
			if got, want := a.MatchPrefixTokens(turn, limit), a.MatchPrefixTokens(turn.seeds, limit); got != want {
				t.Fatalf("replica %d: chained probe matched %d tokens, unchained %d", i, got, want)
			}
		}
	}

	// Turn one reads blocks 0-4 in probes (the limit stops one token
	// short), then block 5 in registration.
	one := &countingPrompt{seeds: doc[:24], chain: chain}
	probeAll(one, 23)
	if one.fills != 5 {
		t.Fatalf("eight probes filled %d blocks, want the 5 they read", one.fills)
	}
	hit, err := replicas[7].AllocateWithPrefix(1, 32, one, 23)
	if err != nil || hit.Tokens != 20 {
		t.Fatalf("admission hit %+v, err %v; want 20 tokens", hit, err)
	}
	check(t, replicas[7])
	if one.fills != 6 || len(chain.hashes) != 6 {
		t.Fatalf("after admission %d fills, chain of %d; want 6 and 6", one.fills, len(chain.hashes))
	}

	// Turn two extends turn one: only its new block 6 is filled.
	two := &countingPrompt{seeds: doc, chain: chain}
	probeAll(two, 31)
	if two.fills != 1 || len(chain.hashes) != 7 {
		t.Fatalf("turn two's probes filled %d blocks, chain of %d; want 1 and 7", two.fills, len(chain.hashes))
	}
}

// TestMarkComputedWatermark drives chunked prefill in steps that are not
// block multiples and checks that each registry-backed block becomes
// matchable exactly when the done length covers it, that the watermark
// tracks the passed blocks (so later calls resume instead of rescanning).
func TestMarkComputedWatermark(t *testing.T) {
	const bs = 4
	a := newPrefixAlloc(t, bs, 16, PrefixConfig{})
	doc := prompt(3, 14) // three full, shareable blocks plus a partial one
	if _, err := a.AllocateWithPrefix(1, 20, doc, 0); err != nil {
		t.Fatal(err)
	}
	check(t, a)
	want := func(done int) {
		t.Helper()
		check(t, a)
		blocks := min(done/bs, 3)
		if got := a.MatchPrefixTokens(doc, len(doc)); got != blocks*bs {
			t.Fatalf("after MarkComputed(%d): %d tokens matchable, want %d", done, got, blocks*bs)
		}
		if got := a.seqs[1].published; got != blocks {
			t.Fatalf("after MarkComputed(%d): watermark %d, want %d", done, got, blocks)
		}
	}
	high := 0
	for _, done := range []int{3, 6, 5, 7, 9, 13, 14, 20} {
		a.MarkComputed(1, done)
		high = max(high, done) // a smaller done never unpublishes
		want(high)
	}

	// A sequence that takes the blocks by reference starts its own watermark
	// at zero and passes the already-computed blocks as prefill covers them.
	hit, err := a.AllocateWithPrefix(2, 16, doc, 12)
	if err != nil || hit.Tokens != 12 {
		t.Fatalf("hit %+v, err %v; want the 12 published tokens", hit, err)
	}
	check(t, a)
	a.MarkComputed(2, 1)
	if got := a.seqs[2].published; got != 0 {
		t.Fatalf("seq 2 watermark %d after 1 token, want 0", got)
	}
	a.MarkComputed(2, 12)
	check(t, a)
	if got := a.seqs[2].published; got != 3 {
		t.Fatalf("seq 2 watermark %d after 12 tokens, want 3", got)
	}
}
