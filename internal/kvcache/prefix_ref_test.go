package kvcache

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"adaserve/internal/mathutil"
)

// This file keeps the prefix walk as it was before fingerprint chains —
// every walk re-hashing each block it reads from prefixChainSeed, the
// prompt's chain never consulted — and gates the chained walk against it.
// Only hashing changed, so the reference shares everything else (the
// fingerprint table, the LRU tiers, Free and MarkComputed) with the code
// under test.

// refBlockHash extends the fingerprint chain over block b of prompt, read
// through the allocator's scratch buffer.
func (a *Allocator) refBlockHash(prev uint64, prompt Prompt, b int) uint64 {
	buf := a.prefix.scratch
	prompt.FillPromptSeeds(b*len(buf), buf)
	return blockChainHash(prev, buf)
}

// refWalkPrefix is walkPrefix re-hashing every block it reads.
func (a *Allocator) refWalkPrefix(prompt Prompt, limit int, visit func(*shared)) (int, uint64) {
	bs := a.cfg.blockSize
	limit = min(limit, prompt.PromptTokens())
	h := prefixChainSeed
	b := 0
	for ; (b+1)*bs <= limit; b++ {
		next := a.refBlockHash(h, prompt, b)
		e := a.prefix.table[next]
		if e == nil || !e.computed {
			break
		}
		if visit != nil {
			visit(e)
		}
		h = next
	}
	return b, h
}

// refMatchPrefixTokens is MatchPrefixTokens over refWalkPrefix.
func (a *Allocator) refMatchPrefixTokens(prompt Prompt, limit int) int {
	if a.prefix == nil {
		return 0
	}
	n, _ := a.refWalkPrefix(prompt, limit, nil)
	return n * a.cfg.blockSize
}

// refAllocateWithPrefix is AllocateWithPrefix matching through refWalkPrefix
// and re-hashing the blocks it registers.
func (a *Allocator) refAllocateWithPrefix(seqID, tokens int, prompt Prompt, matchLimit int) (PrefixHit, error) {
	var hit PrefixHit
	if a.prefix == nil {
		return hit, a.Allocate(seqID, tokens)
	}
	if _, ok := a.seqs[seqID]; ok {
		return hit, fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	if tokens < 0 {
		return hit, fmt.Errorf("kvcache: negative token count %d", tokens)
	}
	p := a.prefix
	bs := a.cfg.blockSize
	promptLen := prompt.PromptTokens()
	matchLimit = min(matchLimit, tokens, promptLen)

	var matched []*shared
	b, h := a.refWalkPrefix(prompt, matchLimit, func(e *shared) { matched = append(matched, e) })
	if matchLimit > 0 {
		p.stats.Lookups++
	}
	totalBlocks := a.blocksFor(tokens)
	hostMatched, coldMatched := 0, 0
	for _, e := range matched {
		switch {
		case e.onHost:
			hostMatched++
		case e.refs == 0:
			coldMatched++
		}
	}
	need := totalBlocks - len(matched) + hostMatched
	if avail := a.availableBlocks() - coldMatched; need > avail {
		return PrefixHit{}, fmt.Errorf("kvcache: need %d blocks, %d free", need, avail)
	}
	if len(matched) > 0 {
		p.stats.Hits++
		p.stats.HitTokens += len(matched) * bs
		hit.Tokens = len(matched) * bs
	}
	s := &seq{tokens: tokens}
	s.blocks = make([]int, 0, totalBlocks)
	s.entries = make([]*shared, 0, min(promptLen, tokens)/bs)
	for _, e := range matched {
		s.entries = append(s.entries, e)
		if e.onHost {
			s.blocks = append(s.blocks, -1)
			continue
		}
		a.acquire(e)
		s.blocks = append(s.blocks, e.id)
	}
	for _, e := range matched {
		if e.onHost {
			p.host.remove(e)
		}
	}
	for i, e := range matched {
		if !e.onHost {
			continue
		}
		id, ok := a.popAvailable()
		if !ok {
			panic("kvcache: prefix capacity check missed a reload slot")
		}
		e.onHost = false
		e.id = id
		e.refs = 1
		s.blocks[i] = id
		p.stats.Reloads++
		p.stats.ReloadedTokens += bs
		hit.reloaded += bs
	}
	for len(s.blocks) < totalBlocks {
		id, ok := a.popAvailable()
		if !ok {
			panic("kvcache: prefix capacity check missed a block")
		}
		s.blocks = append(s.blocks, id)
	}
	for ; (b+1)*bs <= promptLen && (b+1)*bs <= tokens; b++ {
		h = a.refBlockHash(h, prompt, b)
		var e *shared
		if p.table[h] == nil {
			e = &shared{hash: h, id: s.blocks[b], refs: 1}
			p.table[h] = e
		}
		s.entries = append(s.entries, e)
	}
	a.seqs[seqID] = s
	a.updatePeak()
	if hit.reloaded > 0 && p.cfg.ReloadLatency != nil {
		hit.Stall = p.cfg.ReloadLatency(hit.reloaded)
		p.stats.ReloadStall += hit.Stall
	}
	return hit, nil
}

// seqState is what a sequence holds, with entries read as fingerprints (0
// for a private block), comparable across allocators.
type seqState struct {
	Blocks       []int
	Fingerprints []uint64
	Tokens       int
	Published    int
}

func seqStates(a *Allocator) map[int]seqState {
	out := make(map[int]seqState, len(a.seqs))
	for id, s := range a.seqs {
		fp := make([]uint64, len(s.entries))
		for i, e := range s.entries {
			if e != nil {
				fp[i] = e.hash
			}
		}
		out[id] = seqState{s.blocks, fp, s.tokens, s.published}
	}
	return out
}

// rehash is the fingerprint chain of prompt's first n full blocks at block
// size bs, hashed from scratch.
func rehash(prompt Prompt, bs, n int) []uint64 {
	out := make([]uint64, n)
	buf := make([]uint64, bs)
	h := prefixChainSeed
	for b := range out {
		prompt.FillPromptSeeds(b*bs, buf)
		h = blockChainHash(h, buf)
		out[b] = h
	}
	return out
}

// chainScript drives session-style prompts through two allocators twice:
// once with the chained walk under test, the first two sessions sharing one
// chain across all their turns and the third unchained, and once through the
// re-hashing reference with unchained prompts. Probes, allocations,
// MarkComputed, Free and turn extensions interleave in any order over both
// allocators. After every step the two sides must agree on every probe,
// allocation hit and error, every sequence's blocks and fingerprints, and the
// PrefixStats; every allocator must pass checkInvariants; and every chain
// must hold exactly the fingerprints hashing from scratch gives.
//
// data[0] picks the two allocators' block sizes from {1, 4, 16} and the host
// tier, data[1] the pool size; every following 3-byte group is one operation:
// its kind, a byte choosing the session and the allocator, and an argument.
func chainScript(data []byte) error {
	if len(data) < 2 {
		return nil
	}
	const sessions, maxPrompt = 3, 96
	sizes := [3]int{1, 4, 16}
	host := int(data[0]/9%3) * 4
	capacity := 64 + 32*int(data[1]%4)
	var got, want [2]*Allocator
	for i := range got {
		bs := sizes[int(data[0]/[2]byte{1, 3}[i])%3]
		got[i], want[i] = MustNew(ConfigForTokens(capacity, bs)), MustNew(ConfigForTokens(capacity, bs))
		for _, a := range []*Allocator{got[i], want[i]} {
			if err := a.EnablePrefix(PrefixConfig{HostBlocks: host}); err != nil {
				return err
			}
		}
	}
	// Every session opens with one of two shared system prompts, so
	// sessions share blocks across chains.
	var prompts [sessions]seeds
	var chains [sessions]*Chain
	for s := range prompts {
		prompts[s] = prompt(uint64(s%2), 8+s)
		if s < 2 {
			chains[s] = new(Chain)
		}
	}
	for step, ops := 0, data[2:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
		kind, s, i, n := ops[0]%5, int(ops[1]%sessions), int(ops[1]/sessions%2), int(ops[2])
		p := prompts[s]
		cp := &countingPrompt{seeds: p, chain: chains[s]}
		var errGot, errWant error
		switch kind {
		case 0:
			limit := n % (len(p) + 1)
			if g, w := got[i].MatchPrefixTokens(cp, limit), want[i].refMatchPrefixTokens(p, limit); g != w {
				return fmt.Errorf("step %d: session %d probe of allocator %d matched %d tokens, reference %d", step, s, i, g, w)
			}
		case 1:
			// The scheduler's shape: the prompt plus reserved output,
			// matched up to one token short; now and then fewer tokens than
			// the prompt, so registration stops early.
			tokens, limit := len(p)+n%8, len(p)-1
			if n%16 == 15 {
				tokens = len(p) / 2
			}
			hitGot, eg := got[i].AllocateWithPrefix(s, tokens, cp, limit)
			hitWant, ew := want[i].refAllocateWithPrefix(s, tokens, p, limit)
			if hitGot != hitWant {
				return fmt.Errorf("step %d: session %d allocation on %d hit %+v, reference %+v", step, s, i, hitGot, hitWant)
			}
			errGot, errWant = eg, ew
		case 2:
			got[i].MarkComputed(s, n%(len(p)+8))
			want[i].MarkComputed(s, n%(len(p)+8))
		case 3:
			errGot, errWant = got[i].Free(s), want[i].Free(s)
		default:
			// The next turn: the prompt grows by one segment, a shared
			// document's or the session's own, and keeps its chain.
			seg := prompt(mathutil.Hash2(uint64(n%3), uint64(s*(n%3/2))), 1+n/3%20)
			if len(p)+len(seg) <= maxPrompt {
				prompts[s] = append(p[:len(p):len(p)], seg...)
			}
		}
		if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
			return fmt.Errorf("step %d (op %d session %d allocator %d): error %v, reference %v", step, kind, s, i, errGot, errWant)
		}
		for j := range got {
			if err := got[j].checkInvariants(); err != nil {
				return fmt.Errorf("step %d: allocator %d: %v", step, j, err)
			}
			if err := want[j].checkInvariants(); err != nil {
				return fmt.Errorf("step %d: reference %d: %v", step, j, err)
			}
			if g, w := got[j].PrefixStats(), want[j].PrefixStats(); g != w {
				return fmt.Errorf("step %d: allocator %d stats %+v, reference %+v", step, j, g, w)
			}
			if g, w := seqStates(got[j]), seqStates(want[j]); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("step %d: allocator %d sequences %+v, reference %+v", step, j, g, w)
			}
		}
		for s, c := range chains {
			if c == nil {
				continue
			}
			if len(c.hashes) > len(prompts[s])/max(c.blockSize, 1) {
				return fmt.Errorf("step %d: session %d chain holds %d blocks of a %d-token prompt at block size %d",
					step, s, len(c.hashes), len(prompts[s]), c.blockSize)
			}
			if w := rehash(prompts[s], c.blockSize, len(c.hashes)); !slices.Equal(c.hashes, w) {
				return fmt.Errorf("step %d: session %d chain %x, hashed from scratch %x", step, s, c.hashes, w)
			}
		}
	}
	return nil
}

// TestPrefixChainMatchesRehashing runs seeded operation scripts through
// chainScript: the chained walk must be indistinguishable from re-hashing.
func TestPrefixChainMatchesRehashing(t *testing.T) {
	rng := mathutil.NewRNG(0xc4a1)
	for run := 0; run < 300; run++ {
		data := make([]byte, 2+3*(20+rng.Intn(180)))
		for i := range data {
			data[i] = byte(rng.Intn(256))
		}
		if err := chainScript(data); err != nil {
			t.Fatalf("script %d (%x): %v", run, data, err)
		}
	}
}

// FuzzPrefixChain mutates chainScript's operation scripts.
func FuzzPrefixChain(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 9, 1, 0, 23, 2, 0, 40, 0, 0, 40, 0, 3, 40})
	f.Add([]byte{13, 3, 1, 0, 5, 1, 3, 5, 2, 0, 64, 4, 0, 200, 0, 3, 90, 1, 4, 7, 3, 0, 0, 1, 3, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := chainScript(data); err != nil {
			t.Fatal(err)
		}
	})
}
