// Shared-prefix reuse: content-addressed block hashing over prompt token
// seeds, refcounted shared blocks, and a tiered host-offload pool for evicted
// cold prefixes. A sequence reserves its full length at admission and is
// never extended, so nothing ever writes into a shared block.
//
// The scheme follows vLLM's automatic prefix caching: only FULL prompt blocks
// are shareable, each identified by a chained fingerprint — the hash of the
// block's token content mixed with the previous block's fingerprint — so a
// block match implies the entire prefix up to and including that block
// matches. A newly allocated sequence registers its full prompt blocks in the
// fingerprint table; a later sequence whose prompt chains to the same
// fingerprints takes references on the same physical blocks and skips prefill
// for the matched tokens. Blocks whose last reference drops join a cold LRU:
// still GPU-resident and instantly matchable, reclaimed only under allocation
// pressure. With a host tier configured, reclaimed cold blocks demote to a
// bounded host pool instead of vanishing; matching a host-resident block
// costs a reload priced by the configured interconnect latency, charged to
// the admitted request ahead of its first prefill pass.
//
// A fingerprint is a pure function of the prompt's content and the block
// size, so a prompt may carry a Chain memo of its leading fingerprints: every
// walk over it (a router's probe of each replica, admission's match and
// registration) reads the memo and extends it, and a multi-turn session
// shares one chain across its turns, so each block of a conversation is
// hashed once. A sequence holds pointers to its fingerprint-table entries,
// so releasing and publishing its blocks look nothing up.
//
// Everything here is deterministic: LRU order is maintained with intrusive
// lists (never map iteration), fingerprints are pure functions of token
// content, and matching is strictly leftmost-contiguous over computed blocks.
package kvcache

import (
	"fmt"

	"adaserve/internal/mathutil"
)

// PrefixConfig enables shared-prefix reuse on an allocator.
type PrefixConfig struct {
	// HostBlocks caps the host offload tier in blocks. 0 disables the tier:
	// cold blocks reclaimed under allocation pressure are dropped outright.
	HostBlocks int
	// ReloadLatency prices moving n reloaded tokens from the host tier back
	// onto the GPU (typically gpu.KVTransfer.Latency over a PCIe link). nil
	// makes reloads free; the reload still counts in the stats.
	ReloadLatency func(tokens int) float64
}

// PrefixStats counts what the prefix cache did over the allocator's life.
type PrefixStats struct {
	// Lookups counts admissions that attempted a prefix match; Hits those
	// that matched at least one block.
	Lookups, Hits int
	// HitTokens is the total prompt tokens served from cache — prefill work
	// the admitted requests skipped.
	HitTokens int
	// Evictions counts cold blocks reclaimed from the GPU (demoted to the
	// host tier, or dropped when no tier is configured); HostEvictions
	// counts host-tier entries dropped at host-capacity pressure.
	Evictions, HostEvictions int
	// Reloads counts host-resident blocks promoted back to the GPU on a
	// match, covering ReloadedTokens tokens and stalling admitted requests
	// for ReloadStall seconds in total.
	Reloads        int
	ReloadedTokens int
	ReloadStall    float64
}

// PrefixHit reports what AllocateWithPrefix reused for one sequence.
type PrefixHit struct {
	// Tokens is the cached prefix length: prompt tokens whose prefill the
	// sequence skips.
	Tokens int
	// reloaded is the subset of Tokens that had to be reloaded from the
	// host tier; Stall is the priced reload latency the caller must charge
	// before the sequence's first prefill pass.
	reloaded int
	Stall    float64
}

// shared is one fingerprint-table entry: a physical block holding one full
// block of some prompt's KV, shared by refs sequences. refs == 0 means cold:
// GPU-resident on the cold LRU (matchable, reclaimable) or demoted to the
// host tier (matchable via reload). The prev/next links thread the entry
// into whichever LRU list currently owns it.
type shared struct {
	hash       uint64
	id         int
	refs       int
	computed   bool
	onHost     bool
	prev, next *shared
}

// lruList is an intrusive doubly linked list of shared entries, front = least
// recently used. Deterministic by construction: order depends only on the
// sequence of push/remove operations, never on map iteration.
type lruList struct {
	head, tail *shared
	n          int
}

func (l *lruList) pushBack(e *shared) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.n++
}

func (l *lruList) remove(e *shared) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.n--
}

func (l *lruList) popFront() *shared {
	e := l.head
	l.remove(e)
	return e
}

// prefixState is the allocator's prefix-cache side table.
type prefixState struct {
	cfg   PrefixConfig
	table map[uint64]*shared
	cold  lruList // refs == 0, GPU-resident, LRU reclaim order
	host  lruList // offloaded entries, LRU drop order
	stats PrefixStats
	// scratch is one block of token seeds: a walk fills it for each block
	// it hashes, so matching and registration never materialize a prompt's
	// seeds.
	scratch []uint64
	// matched is AllocateWithPrefix's buffer of matched entries, reused
	// across calls and cleared after each so it pins no entry.
	matched []*shared
}

// Prompt is a prompt as prefix caching reads it: its length in tokens, the
// content seeds of any window of its positions, filled into a caller-owned
// buffer, and an optional memo of its block fingerprints. The allocator
// walks it one block at a time and hashes only the blocks it visits and its
// chain does not already hold. *request.Request implements it.
type Prompt interface {
	PromptTokens() int
	FillPromptSeeds(start int, dst []uint64)
	// PromptChain returns the prompt's fingerprint memo, or nil when it has
	// none; walks then hash every block they read.
	PromptChain() *Chain
}

// Chain memoizes a prompt's block fingerprints: a block size and the
// fingerprints of the prompt's leading full blocks at that size, grown by
// append as walks read further. Every allocator's walks (router probes and
// admission alike) read and extend it, so a block is hashed once however
// many replicas probe the prompt; an allocator with a different block size
// resets it. The zero value is an empty chain.
//
// A chain may be shared only by prompts that agree on every block it holds:
// the memo is trusted, never checked. A session's turns qualify — each
// turn's prompt extends the previous one, so every full block of one turn is
// the same block of the next — as long as they run one at a time.
type Chain struct {
	blockSize int
	hashes    []uint64
}

// prefixChainSeed anchors the block fingerprint chain.
const prefixChainSeed uint64 = 0x70726566697843 // "prefixC"

// blockChainHash extends the fingerprint chain over one full block of token
// seeds.
func blockChainHash(prev uint64, tokens []uint64) uint64 {
	h := mathutil.Hash2(prev, uint64(len(tokens)))
	for _, t := range tokens {
		h = mathutil.Hash2(h, t)
	}
	return h
}

// fingerprint returns the fingerprint of prompt's full block b, where prev
// is block b-1's (prefixChainSeed for block 0) and c is the prompt's chain.
// Every walk reads its blocks through here, in order from block 0. A block c
// holds is read from it; any other is hashed over the allocator's scratch
// buffer and, when it is the next block of c, appended. A chain built at
// another block size is reset first.
func (a *Allocator) fingerprint(c *Chain, prompt Prompt, b int, prev uint64) uint64 {
	if c != nil {
		if c.blockSize != a.cfg.blockSize {
			c.blockSize, c.hashes = a.cfg.blockSize, c.hashes[:0]
		}
		if b < len(c.hashes) {
			return c.hashes[b]
		}
	}
	buf := a.prefix.scratch
	prompt.FillPromptSeeds(b*len(buf), buf)
	h := blockChainHash(prev, buf)
	if c != nil && b == len(c.hashes) {
		c.hashes = append(c.hashes, h)
	}
	return h
}

// walkPrefix matches prompt's full blocks within its first limit tokens
// against the fingerprint table, one block at a time, stopping at the first
// block without a computed entry — on a cold cache the walk reads a single
// fingerprint. visit, when non-nil, sees each matched entry in position
// order. It returns the matched block count and the fingerprint of the last
// matched block (prefixChainSeed when none matched), from which a caller
// continues the chain.
func (a *Allocator) walkPrefix(prompt Prompt, limit int, visit func(*shared)) (int, uint64) {
	bs := a.cfg.blockSize
	limit = min(limit, prompt.PromptTokens())
	c := prompt.PromptChain()
	h := prefixChainSeed
	b := 0
	for ; (b+1)*bs <= limit; b++ {
		next := a.fingerprint(c, prompt, b, h)
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

// EnablePrefix turns on shared-prefix reuse. It must be called on an empty
// allocator (no sequences registered), before any allocation.
func (a *Allocator) EnablePrefix(cfg PrefixConfig) error {
	if a.prefix != nil {
		return fmt.Errorf("kvcache: prefix caching already enabled")
	}
	if len(a.seqs) != 0 || a.usedBlocks() != 0 {
		return fmt.Errorf("kvcache: prefix caching must be enabled on an empty allocator")
	}
	if cfg.HostBlocks < 0 {
		return fmt.Errorf("kvcache: negative host tier size %d", cfg.HostBlocks)
	}
	a.prefix = &prefixState{cfg: cfg, table: make(map[uint64]*shared), scratch: make([]uint64, a.cfg.blockSize)}
	return nil
}

// PrefixEnabled reports whether shared-prefix reuse is on.
func (a *Allocator) PrefixEnabled() bool { return a.prefix != nil }

// PrefixStats returns a copy of the prefix-cache counters (zero when
// disabled).
func (a *Allocator) PrefixStats() PrefixStats {
	if a.prefix == nil {
		return PrefixStats{}
	}
	return a.prefix.stats
}

// availableBlocks is the allocation headroom: free blocks (returned or never
// allocated) plus cold shared blocks that can be reclaimed on demand.
func (a *Allocator) availableBlocks() int {
	n := len(a.returned) + a.cfg.numBlocks - a.fresh
	if a.prefix != nil {
		n += a.prefix.cold.n
	}
	return n
}

// popAvailable takes one GPU block: a free one, or by reclaiming the
// least-recently-used cold shared block (demoting it to the host tier when
// one is configured, dropping it otherwise).
func (a *Allocator) popAvailable() (int, bool) {
	if id, ok := a.popFree(); ok {
		return id, true
	}
	p := a.prefix
	if p == nil || p.cold.n == 0 {
		return 0, false
	}
	e := p.cold.popFront()
	id := e.id
	p.stats.Evictions++
	if p.cfg.HostBlocks > 0 {
		e.onHost = true
		e.id = -1
		p.host.pushBack(e)
		if p.host.n > p.cfg.HostBlocks {
			v := p.host.popFront()
			delete(p.table, v.hash)
			p.stats.HostEvictions++
		}
	} else {
		delete(p.table, e.hash)
	}
	return id, true
}

// acquire takes a reference on a GPU-resident shared entry, pulling it off
// the cold list when this is the first reference back.
func (a *Allocator) acquire(e *shared) {
	if e.refs == 0 {
		a.prefix.cold.remove(e)
	}
	e.refs++
}

// release drops one reference on a registry-backed block. The last release
// of a computed block parks it on the cold LRU (still matchable, reclaimed
// only under pressure); a block whose prefill never completed is worthless
// as a cache entry and returns straight to the free blocks.
func (a *Allocator) release(e *shared) {
	p := a.prefix
	if e.refs <= 0 || e.onHost {
		panic(fmt.Sprintf("kvcache: release of unowned shared block (hash %#x)", e.hash))
	}
	e.refs--
	if e.refs > 0 {
		return
	}
	if !e.computed {
		delete(p.table, e.hash)
		a.returned = append(a.returned, e.id)
		return
	}
	p.cold.pushBack(e)
}

// MatchPrefixTokens is the probe routers use: the longest computed cached
// prefix of prompt's first limit tokens, in tokens (a multiple of the block
// size). Host-resident blocks count: an allocation against them pays a
// reload. Read-only, it changes no reference count, LRU position or stat,
// allocates nothing beyond extending prompt's chain, and hashes only up to
// the first missing block and only blocks the chain does not hold.
func (a *Allocator) MatchPrefixTokens(prompt Prompt, limit int) int {
	if a.prefix == nil {
		return 0
	}
	n, _ := a.walkPrefix(prompt, limit, nil)
	return n * a.cfg.blockSize
}

// AllocateWithPrefix registers a new sequence reserving tokens tokens, like
// Allocate, but first matches the prompt's token seeds against the prefix
// cache: the longest computed cached prefix (capped at matchLimit tokens,
// rounded down to full blocks) is taken by reference instead of from the
// free blocks, and the sequence's own remaining full prompt blocks are
// registered as shareable for later arrivals. Capacity is only needed for
// the unmatched remainder (plus one GPU slot per host-resident match), which
// is how prefix reuse stretches KV capacity. Both the match and the
// registration read the prompt one block at a time, through its chain. With
// prefix caching disabled it degrades to plain Allocate.
func (a *Allocator) AllocateWithPrefix(seqID, tokens int, prompt Prompt, matchLimit int) (PrefixHit, error) {
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

	// Match: walk the fingerprint chain over full blocks while computed
	// entries exist.
	matched := p.matched[:0]
	b, h := a.walkPrefix(prompt, matchLimit, func(e *shared) { matched = append(matched, e) })
	defer func() { clear(matched); p.matched = matched[:0] }()
	if matchLimit > 0 {
		p.stats.Lookups++
	}

	// Capacity: fresh blocks for the unmatched remainder plus one GPU slot
	// per host-resident match — with cold blocks that are themselves matched
	// excluded from the reclaimable pool.
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

	// Acquire GPU-resident matches first: that pulls matched cold entries
	// off the reclaim list before popAvailable can evict them.
	s := &seq{tokens: tokens}
	s.blocks = make([]int, 0, totalBlocks)
	s.entries = make([]*shared, 0, min(promptLen, tokens)/bs)
	for _, e := range matched {
		s.entries = append(s.entries, e)
		if e.onHost {
			s.blocks = append(s.blocks, -1) // reload slot, filled below
			continue
		}
		a.acquire(e)
		s.blocks = append(s.blocks, e.id)
	}
	// Pull matched host entries off the host LRU before any popAvailable
	// call: reloads and fresh allocations below can themselves demote cold
	// blocks to the host tier, and the resulting overflow drop must never
	// claim an entry this very allocation matched (it would leave the
	// sequence chained to a deleted fingerprint).
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

	// Register the sequence's remaining full prompt blocks as shareable.
	// The fingerprint chain continues across blocks whose hash is already
	// claimed (content is content); such blocks simply stay private here.
	c := prompt.PromptChain()
	for ; (b+1)*bs <= promptLen && (b+1)*bs <= tokens; b++ {
		h = a.fingerprint(c, prompt, b, h)
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

// MarkComputed records that a sequence's prompt KV is materialized up to
// doneTokens: its registry-backed blocks fully covered by that length become
// matchable by later allocations. Schedulers call this as prefill
// progresses, typically every iteration for every running sequence, so each
// block is visited once: the sequence's published watermark records how many
// leading blocks earlier calls already passed, and the walk resumes there.
// Blocks acquired from the cache were computed already; passing them is a
// no-op.
func (a *Allocator) MarkComputed(seqID, doneTokens int) {
	if a.prefix == nil {
		return
	}
	s, ok := a.seqs[seqID]
	if !ok {
		return
	}
	bs := a.cfg.blockSize
	i := s.published
	for ; i < len(s.entries) && (i+1)*bs <= doneTokens; i++ {
		if e := s.entries[i]; e != nil {
			e.computed = true
		}
	}
	s.published = i
}

// checkInvariants verifies the allocator's full accounting: every block is
// exactly one of free (at or above the never-allocated watermark, or on the
// returned stack below it), privately owned by one sequence, or
// registry-backed with a reference count equal to the sequences actually
// holding it; cold and host LRU lists agree with entry states; and the host
// tier respects its bound. Tests call it after every mutation step; it is
// read-only and order-independent. Kept for the invariant auditor on the
// roadmap, which will call it after every iteration.
func (a *Allocator) checkInvariants() error {
	if a.fresh < 0 || a.fresh > a.cfg.numBlocks {
		return fmt.Errorf("kvcache: watermark %d outside [0, %d]", a.fresh, a.cfg.numBlocks)
	}
	// Blocks at or above the watermark are free by construction; every other
	// block must be claimed exactly once.
	claim := make(map[int]string, a.fresh)
	take := func(id int, who string) error {
		if id < 0 || id >= a.cfg.numBlocks {
			return fmt.Errorf("kvcache: block %d out of range (%s)", id, who)
		}
		if id >= a.fresh {
			return fmt.Errorf("kvcache: block %d at or above the watermark %d claimed by %s", id, a.fresh, who)
		}
		if prev, ok := claim[id]; ok {
			return fmt.Errorf("kvcache: block %d claimed by both %s and %s", id, prev, who)
		}
		claim[id] = who
		return nil
	}
	for _, id := range a.returned {
		if err := take(id, "returned stack"); err != nil {
			return err
		}
	}

	refCount := make(map[uint64]int)
	for seqID, s := range a.seqs {
		if len(s.blocks) != a.blocksFor(s.tokens) {
			return fmt.Errorf("kvcache: seq %d holds %d blocks for %d tokens", seqID, len(s.blocks), s.tokens)
		}
		if len(s.entries) > len(s.blocks) {
			return fmt.Errorf("kvcache: seq %d has %d entry slots for %d blocks", seqID, len(s.entries), len(s.blocks))
		}
		if s.published > len(s.entries) {
			return fmt.Errorf("kvcache: seq %d published watermark %d past its %d entry slots", seqID, s.published, len(s.entries))
		}
		for i := 0; i < s.published; i++ {
			if e := s.entries[i]; e != nil && !e.computed {
				return fmt.Errorf("kvcache: seq %d block %d below the published watermark is uncomputed", seqID, i)
			}
		}
		for i, id := range s.blocks {
			if i < len(s.entries) && s.entries[i] != nil {
				e := s.entries[i]
				h := e.hash
				if a.prefix.table[h] != e {
					return fmt.Errorf("kvcache: seq %d block %d holds an entry for hash %#x that is not the table's", seqID, i, h)
				}
				if e.onHost {
					return fmt.Errorf("kvcache: seq %d block %d references host-resident hash %#x", seqID, i, h)
				}
				if e.id != id {
					return fmt.Errorf("kvcache: seq %d block %d is %d but entry %#x holds %d", seqID, i, id, h, e.id)
				}
				refCount[h]++
				continue
			}
			if err := take(id, fmt.Sprintf("seq %d", seqID)); err != nil {
				return err
			}
		}
	}

	if a.prefix != nil {
		p := a.prefix
		inCold := make(map[*shared]bool, p.cold.n)
		for e := p.cold.head; e != nil; e = e.next {
			inCold[e] = true
		}
		if len(inCold) != p.cold.n {
			return fmt.Errorf("kvcache: cold list count %d != %d", len(inCold), p.cold.n)
		}
		inHost := make(map[*shared]bool, p.host.n)
		for e := p.host.head; e != nil; e = e.next {
			inHost[e] = true
		}
		if len(inHost) != p.host.n {
			return fmt.Errorf("kvcache: host list count %d != %d", len(inHost), p.host.n)
		}
		if p.cfg.HostBlocks > 0 && p.host.n > p.cfg.HostBlocks {
			return fmt.Errorf("kvcache: host tier holds %d > cap %d", p.host.n, p.cfg.HostBlocks)
		}
		for h, e := range p.table {
			if e.hash != h {
				return fmt.Errorf("kvcache: entry keyed %#x carries hash %#x", h, e.hash)
			}
			if e.onHost {
				if e.refs != 0 || !inHost[e] {
					return fmt.Errorf("kvcache: host entry %#x refs=%d inHost=%v", h, e.refs, inHost[e])
				}
				continue
			}
			if e.refs != refCount[h] {
				return fmt.Errorf("kvcache: entry %#x refs=%d but %d sequences hold it", h, e.refs, refCount[h])
			}
			if (e.refs == 0) != inCold[e] {
				return fmt.Errorf("kvcache: entry %#x refs=%d inCold=%v", h, e.refs, inCold[e])
			}
			if err := take(e.id, fmt.Sprintf("shared %#x", h)); err != nil {
				return err
			}
		}
	}

	if len(claim) != a.fresh {
		return fmt.Errorf("kvcache: %d of the %d blocks below the watermark accounted for", len(claim), a.fresh)
	}
	return nil
}
