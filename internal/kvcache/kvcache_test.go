package kvcache

import (
	"testing"
	"testing/quick"

	"adaserve/internal/mathutil"
)

func newAlloc(t *testing.T, blockSize, numBlocks int) *Allocator {
	t.Helper()
	a, err := newAllocator(Config{blockSize: blockSize, numBlocks: numBlocks})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	if (Config{blockSize: 0, numBlocks: 1}).validate() == nil {
		t.Error("zero block size accepted")
	}
	if (Config{blockSize: 16, numBlocks: 0}).validate() == nil {
		t.Error("zero block count accepted")
	}
	if (Config{blockSize: 16, numBlocks: 8}).validate() != nil {
		t.Error("valid config rejected")
	}
}

func TestConfigForTokens(t *testing.T) {
	c := ConfigForTokens(100, 16)
	if c.numBlocks != 7 {
		t.Fatalf("100 tokens / 16 per block = 7 blocks, got %d", c.numBlocks)
	}
	if ConfigForTokens(0, 16).numBlocks != 1 {
		t.Fatal("zero capacity should still allocate one block")
	}
}

func TestAllocateAndFree(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 40); err != nil { // 3 blocks
		t.Fatal(err)
	}
	if a.usedBlocks() != 3 || a.availableBlocks() != 5 {
		t.Fatalf("used=%d available=%d", a.usedBlocks(), a.availableBlocks())
	}
	if a.seqs[1].tokens != 40 {
		t.Fatalf("seq tokens %d", a.seqs[1].tokens)
	}
	if err := a.Free(1); err != nil {
		t.Fatal(err)
	}
	if a.usedBlocks() != 0 || a.availableBlocks() != 8 || len(a.seqs) != 0 {
		t.Fatal("free did not release blocks")
	}
}

func TestAllocateDuplicateFails(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := a.Allocate(1, 10); err == nil {
		t.Fatal("duplicate allocation accepted")
	}
}

func TestAllocateCapacityExhausted(t *testing.T) {
	a := newAlloc(t, 16, 4)
	if err := a.Allocate(1, 64); err != nil { // exactly 4 blocks
		t.Fatal(err)
	}
	err := a.Allocate(2, 1)
	if err == nil {
		t.Fatal("over-capacity allocation accepted")
	}
	if want := "kvcache: need 1 blocks, 0 free"; err.Error() != want {
		t.Fatalf("error %q, want the capacity error %q", err, want)
	}
}

func TestBlockTableStable(t *testing.T) {
	a := newAlloc(t, 16, 8)
	if err := a.Allocate(1, 33); err != nil {
		t.Fatal(err)
	}
	bt := a.seqs[1].blocks
	if len(bt) != 3 {
		t.Fatalf("block table %v", bt)
	}
	seen := map[int]bool{}
	for _, b := range bt {
		if b < 0 || b >= 8 || seen[b] {
			t.Fatalf("invalid block table %v", bt)
		}
		seen[b] = true
	}
}

func TestPeakTracking(t *testing.T) {
	a := newAlloc(t, 16, 8)
	_ = a.Allocate(1, 64)
	_ = a.Free(1)
	_ = a.Allocate(2, 16)
	if a.peakUsedBlocks != 4 {
		t.Fatalf("peak %d, want 4", a.peakUsedBlocks)
	}
}

// TestAllocatorInvariantProperty drives random allocations and frees and
// checks the conservation invariant: used + available == total, no block
// owned twice, and the full checkInvariants accounting.
func TestAllocatorInvariantProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := mathutil.NewRNG(seed)
		a := MustNew(Config{blockSize: 8, numBlocks: 32})
		live := map[int]bool{}
		next := 0
		for op := 0; op < 200; op++ {
			switch rng.Intn(2) {
			case 0: // allocate
				id := next
				next++
				if a.Allocate(id, rng.Intn(60)) == nil {
					live[id] = true
				}
			case 1: // free
				for id := range live {
					if a.Free(id) == nil {
						delete(live, id)
					}
					break
				}
			}
			if a.usedBlocks()+a.availableBlocks() != 32 || a.checkInvariants() != nil {
				return false
			}
			owned := map[int]bool{}
			for _, s := range a.seqs {
				for _, b := range s.blocks {
					if owned[b] {
						return false
					}
					owned[b] = true
				}
			}
			if len(owned) != a.usedBlocks() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50})
	if err != nil {
		t.Fatal(err)
	}
}
