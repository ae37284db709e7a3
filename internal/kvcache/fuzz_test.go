package kvcache

import (
	"fmt"
	"reflect"
	"testing"
)

// explicitFreeList builds an allocator in the free-list representation the
// watermark replaced: every block ID listed up front on the returned stack,
// highest first so pops come out ascending, with the watermark already past
// the last block. Both representations run the same allocation code, so any
// difference between this reference and MustNew is the watermark's doing.
func explicitFreeList(cfg Config) *Allocator {
	a := MustNew(cfg)
	a.fresh = cfg.numBlocks
	a.returned = make([]int, cfg.numBlocks)
	for i := range a.returned {
		a.returned[i] = cfg.numBlocks - 1 - i
	}
	return a
}

// FuzzAllocatorMatchesFreeList drives the watermark allocator and the
// explicit free-list reference through the same decoded operation sequence
// — Allocate, AllocateWithPrefix, MarkComputed and Free, with prefix caching
// off, on, and on with a host tier — and requires them to agree after every
// step: the same errors and prefix hits, the same block tables (block IDs
// included), used and available counts, peak and failure counters, prefix
// stats, and a clean checkInvariants on both.
//
// data[0] picks the pool size and the prefix mode; every following 3-byte
// group is one operation: its kind, a byte choosing the sequence ID (and, for
// prefix allocations, one of three documents, so prompts share prefixes), and
// a length byte.
func FuzzAllocatorMatchesFreeList(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cfg := Config{blockSize: 4, numBlocks: 4 + int(data[0]%4)*6}
		got, want := MustNew(cfg), explicitFreeList(cfg)
		prefix := data[0]&0x10 != 0
		if prefix {
			pc := PrefixConfig{HostBlocks: int(data[0]>>5) % 3 * 2}
			if err := got.EnablePrefix(pc); err != nil {
				t.Fatal(err)
			}
			if err := want.EnablePrefix(pc); err != nil {
				t.Fatal(err)
			}
		}
		for step, ops := 0, data[1:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			kind, id, doc, n := ops[0]%4, int(ops[1]%6), uint64(ops[1]/6%3), int(ops[2])
			var errGot, errWant error
			switch {
			case kind == 0 || (kind == 1 && !prefix):
				errGot, errWant = got.Allocate(id, n%48), want.Allocate(id, n%48)
			case kind == 1:
				// The length byte sizes the prompt and the output reserved
				// past it; the match limit is the whole prompt.
				p := prompt(doc, n%32)
				tokens := len(p) + n/32
				var hitGot, hitWant PrefixHit
				hitGot, errGot = got.AllocateWithPrefix(id, tokens, p, len(p))
				hitWant, errWant = want.AllocateWithPrefix(id, tokens, p, len(p))
				if hitGot != hitWant {
					t.Fatalf("step %d: prefix hit %+v, free-list reference %+v", step, hitGot, hitWant)
				}
			case kind == 2:
				got.MarkComputed(id, n%48)
				want.MarkComputed(id, n%48)
			default:
				errGot, errWant = got.Free(id), want.Free(id)
			}
			if fmt.Sprint(errGot) != fmt.Sprint(errWant) {
				t.Fatalf("step %d (op %d seq %d len %d): error %v, free-list reference %v", step, kind, id, n, errGot, errWant)
			}
			if err := got.checkInvariants(); err != nil {
				t.Fatalf("step %d: watermark allocator: %v", step, err)
			}
			if err := want.checkInvariants(); err != nil {
				t.Fatalf("step %d: free-list reference: %v", step, err)
			}
			if got.usedBlocks() != want.usedBlocks() || got.availableBlocks() != want.availableBlocks() ||
				got.peakUsedBlocks != want.peakUsedBlocks || got.PrefixStats() != want.PrefixStats() {
				t.Fatalf("step %d: used/available/peak %d/%d/%d %+v, free-list reference %d/%d/%d %+v",
					step, got.usedBlocks(), got.availableBlocks(), got.peakUsedBlocks, got.PrefixStats(),
					want.usedBlocks(), want.availableBlocks(), want.peakUsedBlocks, want.PrefixStats())
			}
			if !reflect.DeepEqual(got.seqs, want.seqs) {
				t.Fatalf("step %d: block tables diverged from the free-list reference", step)
			}
		}
	})
}
