// Package kvcache implements a PagedAttention-style block allocator for
// KV-cache memory, the substrate vLLM introduced and every system in this
// repository (AdaServe included) runs on.
//
// Tokens are stored in fixed-size blocks; a sequence owns a block table.
// The allocator tracks capacity so the simulator can enforce admission
// control and measure fragmentation (the internal waste of partially filled
// last blocks).
package kvcache

import (
	"fmt"
	"sort"
)

// Config sizes the allocator.
type Config struct {
	// BlockSize is the tokens per block (vLLM default: 16).
	BlockSize int
	// NumBlocks is the total block pool size.
	NumBlocks int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("kvcache: block size %d <= 0", c.BlockSize)
	}
	if c.NumBlocks <= 0 {
		return fmt.Errorf("kvcache: block count %d <= 0", c.NumBlocks)
	}
	return nil
}

// ConfigForTokens returns a Config able to hold capacityTokens with the
// given block size.
func ConfigForTokens(capacityTokens, blockSize int) Config {
	blocks := (capacityTokens + blockSize - 1) / blockSize
	if blocks < 1 {
		blocks = 1
	}
	return Config{BlockSize: blockSize, NumBlocks: blocks}
}

// seq tracks one sequence's allocation. With prefix caching enabled, hashes
// runs parallel to blocks over the prompt's full blocks: a non-zero entry is
// the fingerprint of a registry-backed (shared or shareable) block, 0 marks a
// private block. hashes is always at most as long as blocks and empty when
// prefix caching is off. published is MarkComputed's watermark: the leading
// hashes it has already passed (at most len(hashes)).
type seq struct {
	blocks    []int
	tokens    int
	hashes    []uint64
	published int
}

// Allocator manages the block pool. It is not safe for concurrent use; the
// simulator is single-threaded per serving instance.
type Allocator struct {
	cfg  Config
	free []int
	seqs map[int]*seq

	// prefix is nil unless EnablePrefix was called; every shared-prefix path
	// gates on it so the disabled allocator behaves exactly as before.
	prefix *prefixState

	// PeakUsedBlocks records the allocation high-water mark.
	PeakUsedBlocks int
	// Failures counts rejected allocations (capacity exhausted).
	Failures int
}

// New creates an allocator with all blocks free.
func New(cfg Config) (*Allocator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := &Allocator{cfg: cfg, seqs: make(map[int]*seq)}
	a.free = make([]int, cfg.NumBlocks)
	for i := range a.free {
		a.free[i] = cfg.NumBlocks - 1 - i // pop from the end → ascending IDs
	}
	return a, nil
}

// MustNew panics on config error.
func MustNew(cfg Config) *Allocator {
	a, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// Config returns the allocator's configuration.
func (a *Allocator) Config() Config { return a.cfg }

// blocksFor returns the blocks needed for n tokens.
func (a *Allocator) blocksFor(n int) int {
	return (n + a.cfg.BlockSize - 1) / a.cfg.BlockSize
}

// CanAllocate reports whether extending/creating a sequence to hold
// additional tokens would succeed, given its current token count.
func (a *Allocator) CanAllocate(seqID, additional int) bool {
	cur := 0
	if s, ok := a.seqs[seqID]; ok {
		cur = s.tokens
	}
	need := a.blocksFor(cur+additional) - a.blocksFor(cur)
	return need <= a.availableBlocks()
}

// Allocate registers a new sequence with tokens tokens. It fails if the
// sequence exists or capacity is insufficient.
func (a *Allocator) Allocate(seqID, tokens int) error {
	if _, ok := a.seqs[seqID]; ok {
		return fmt.Errorf("kvcache: sequence %d already allocated", seqID)
	}
	if tokens < 0 {
		return fmt.Errorf("kvcache: negative token count %d", tokens)
	}
	need := a.blocksFor(tokens)
	if avail := a.availableBlocks(); need > avail {
		a.Failures++
		return fmt.Errorf("kvcache: need %d blocks, %d free", need, avail)
	}
	s := &seq{tokens: tokens}
	for i := 0; i < need; i++ {
		id, _ := a.popAvailable()
		s.blocks = append(s.blocks, id)
	}
	a.seqs[seqID] = s
	a.updatePeak()
	return nil
}

// Extend grows a sequence by n tokens, allocating blocks as needed.
func (a *Allocator) Extend(seqID, n int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if n < 0 {
		return fmt.Errorf("kvcache: negative extension %d", n)
	}
	// Copy-on-write: appending tokens into a partially filled block that is
	// registry-backed would diverge from the cached content every sharer
	// sees, so the sequence must take a private copy of that block first.
	cow := -1
	if n > 0 && s.tokens%a.cfg.BlockSize != 0 {
		if i := len(s.blocks) - 1; i >= 0 && i < len(s.hashes) && s.hashes[i] != 0 {
			cow = i
		}
	}
	need := a.blocksFor(s.tokens+n) - a.blocksFor(s.tokens)
	extra := 0
	if cow >= 0 {
		extra = 1
	}
	if avail := a.availableBlocks(); need+extra > avail {
		a.Failures++
		return fmt.Errorf("kvcache: need %d blocks, %d free", need+extra, avail)
	}
	if cow >= 0 {
		id, _ := a.popAvailable()
		a.release(s.hashes[cow])
		s.blocks[cow] = id
		s.hashes[cow] = 0
	}
	for i := 0; i < need; i++ {
		id, _ := a.popAvailable()
		s.blocks = append(s.blocks, id)
	}
	s.tokens += n
	a.updatePeak()
	return nil
}

// Shrink releases tokens from the tail of a sequence (e.g. discarded
// speculative tokens), freeing now-empty blocks.
func (a *Allocator) Shrink(seqID, n int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if n < 0 || n > s.tokens {
		return fmt.Errorf("kvcache: shrink %d out of range (have %d)", n, s.tokens)
	}
	s.tokens -= n
	keep := a.blocksFor(s.tokens)
	for len(s.blocks) > keep {
		i := len(s.blocks) - 1
		last := s.blocks[i]
		s.blocks = s.blocks[:i]
		var h uint64
		if i < len(s.hashes) {
			h = s.hashes[i]
			s.hashes = s.hashes[:i]
		}
		if h != 0 {
			a.release(h)
		} else {
			a.free = append(a.free, last)
		}
	}
	s.published = min(s.published, len(s.hashes))
	return nil
}

// Free releases all blocks of a sequence.
func (a *Allocator) Free(seqID int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if len(s.hashes) == 0 {
		a.free = append(a.free, s.blocks...)
	} else {
		for i, b := range s.blocks {
			if i < len(s.hashes) && s.hashes[i] != 0 {
				a.release(s.hashes[i])
			} else {
				a.free = append(a.free, b)
			}
		}
	}
	delete(a.seqs, seqID)
	return nil
}

// Has reports whether the sequence is registered.
func (a *Allocator) Has(seqID int) bool {
	_, ok := a.seqs[seqID]
	return ok
}

// SeqTokens returns the token count of a sequence (0 if absent).
func (a *Allocator) SeqTokens(seqID int) int {
	if s, ok := a.seqs[seqID]; ok {
		return s.tokens
	}
	return 0
}

// UsedBlocks returns the number of allocated blocks.
func (a *Allocator) UsedBlocks() int { return a.cfg.NumBlocks - len(a.free) }

// FreeBlocks returns the number of free blocks.
func (a *Allocator) FreeBlocks() int { return len(a.free) }

// NumSeqs returns the number of registered sequences.
func (a *Allocator) NumSeqs() int { return len(a.seqs) }

// TotalTokens returns the total tokens held across sequences.
func (a *Allocator) TotalTokens() int {
	t := 0
	for _, s := range a.seqs {
		t += s.tokens
	}
	return t
}

// InternalFragmentation returns the fraction of allocated block capacity
// that holds no token (waste inside partially filled last blocks).
func (a *Allocator) InternalFragmentation() float64 {
	used := a.UsedBlocks() * a.cfg.BlockSize
	if used == 0 {
		return 0
	}
	return float64(used-a.TotalTokens()) / float64(used)
}

// BlockTable returns a copy of the block IDs owned by a sequence, in order.
func (a *Allocator) BlockTable(seqID int) []int {
	s, ok := a.seqs[seqID]
	if !ok {
		return nil
	}
	out := make([]int, len(s.blocks))
	copy(out, s.blocks)
	return out
}

// SeqIDs returns the registered sequence IDs in ascending order.
func (a *Allocator) SeqIDs() []int {
	ids := make([]int, 0, len(a.seqs))
	for id := range a.seqs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

func (a *Allocator) pop() int {
	b := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	return b
}

func (a *Allocator) updatePeak() {
	if u := a.UsedBlocks(); u > a.PeakUsedBlocks {
		a.PeakUsedBlocks = u
	}
}
