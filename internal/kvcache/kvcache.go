// Package kvcache implements a PagedAttention-style block allocator for
// KV-cache memory, the substrate vLLM introduced and every system in this
// repository (AdaServe included) runs on.
//
// Tokens are stored in fixed-size blocks; a sequence owns a block table.
// The allocator tracks capacity so the simulator can enforce admission
// control. Schedulers reserve a sequence's full length when they admit it,
// so a block table never grows or shrinks in place: it is allocated once and
// freed once.
package kvcache

import "fmt"

// Config sizes the allocator.
type Config struct {
	// blockSize is the tokens per block (vLLM default: 16).
	blockSize int
	// numBlocks is the total block pool size.
	numBlocks int
}

// validate reports whether the configuration is usable.
func (c Config) validate() error {
	if c.blockSize <= 0 {
		return fmt.Errorf("kvcache: block size %d <= 0", c.blockSize)
	}
	if c.numBlocks <= 0 {
		return fmt.Errorf("kvcache: block count %d <= 0", c.numBlocks)
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
	return Config{blockSize: blockSize, numBlocks: blocks}
}

// seq tracks one sequence's allocation. With prefix caching enabled, entries
// runs parallel to blocks over the prompt's full blocks: a non-nil slot is
// the fingerprint-table entry of a registry-backed (shared or shareable)
// block, nil marks a private block. entries is always at most as long as
// blocks and empty when prefix caching is off. published is MarkComputed's
// watermark: the leading slots it has already passed (at most len(entries)).
type seq struct {
	blocks    []int
	tokens    int
	entries   []*shared
	published int
}

// Allocator manages the block pool. It is not safe for concurrent use; the
// simulator is single-threaded per serving instance.
//
// Free blocks are held implicitly: IDs at or above the watermark fresh have
// never been allocated, and returned holds every block given back since, as
// a stack. A block is taken from returned first (LIFO reuse) and otherwise
// from the watermark, so IDs come out in ascending order until blocks start
// coming back — the order an explicit free list of every ID would give,
// without building one per replica.
type Allocator struct {
	cfg      Config
	fresh    int
	returned []int
	seqs     map[int]*seq

	// prefix is nil unless EnablePrefix was called; every shared-prefix path
	// gates on it so the disabled allocator behaves exactly as before.
	prefix *prefixState

	// peakUsedBlocks records the allocation high-water mark.
	peakUsedBlocks int
}

// newAllocator creates an allocator with all blocks free.
func newAllocator(cfg Config) (*Allocator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Allocator{cfg: cfg, seqs: make(map[int]*seq)}, nil
}

// MustNew panics on config error.
func MustNew(cfg Config) *Allocator {
	a, err := newAllocator(cfg)
	if err != nil {
		panic(err)
	}
	return a
}

// blocksFor returns the blocks needed for n tokens.
func (a *Allocator) blocksFor(n int) int {
	return (n + a.cfg.blockSize - 1) / a.cfg.blockSize
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

// Free releases all blocks of a sequence.
func (a *Allocator) Free(seqID int) error {
	s, ok := a.seqs[seqID]
	if !ok {
		return fmt.Errorf("kvcache: sequence %d not allocated", seqID)
	}
	if len(s.entries) == 0 {
		a.returned = append(a.returned, s.blocks...)
	} else {
		for i, b := range s.blocks {
			if i < len(s.entries) && s.entries[i] != nil {
				a.release(s.entries[i])
			} else {
				a.returned = append(a.returned, b)
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

// usedBlocks returns the number of allocated blocks: every block below the
// watermark that is not waiting on the returned stack.
func (a *Allocator) usedBlocks() int { return a.fresh - len(a.returned) }

// popFree takes one free block, or reports false when none is left: the
// newest returned block first, then the lowest never-allocated ID.
func (a *Allocator) popFree() (int, bool) {
	if n := len(a.returned); n > 0 {
		b := a.returned[n-1]
		a.returned = a.returned[:n-1]
		return b, true
	}
	if a.fresh < a.cfg.numBlocks {
		a.fresh++
		return a.fresh - 1, true
	}
	return 0, false
}

func (a *Allocator) updatePeak() {
	if u := a.usedBlocks(); u > a.peakUsedBlocks {
		a.peakUsedBlocks = u
	}
}
