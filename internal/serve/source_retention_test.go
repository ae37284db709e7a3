package serve

import (
	"testing"

	"adaserve/internal/request"
)

// TestSubmitSourceBoundedRetention regression-tests the head-reslice leak:
// Pop must nil consumed slots and compaction must keep the backing array
// proportional to the live window, so a long closed-loop run (every finish
// submits a follow-up) does not retain a pointer to every request it ever
// served. Before the fix, Pop resliced from the head and the source ended a
// 10k-request run holding all 10k request pointers reachable.
func TestSubmitSourceBoundedRetention(t *testing.T) {
	const live, cycles = 8, 10_000
	src := NewSubmitSource()
	submit := func(id int) {
		r := request.New(id, request.Chat, 1, float64(id), 16, 4, uint64(id)+1)
		if err := src.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < live; id++ {
		submit(id)
	}
	maxLen := 0
	for id := live; id < cycles; id++ {
		if _, ok := src.Peek(); !ok {
			t.Fatal("source drained early")
		}
		src.Pop()
		submit(id)
		if n := len(src.pending); n > maxLen {
			maxLen = n
		}
		if n := len(src.pending) - src.head; n != live {
			t.Fatalf("live count %d, want %d", n, live)
		}
		// The consumed prefix is nil-ed the moment it is popped, so even the
		// slots compaction has not reclaimed yet retain nothing.
		for i := 0; i < src.head; i++ {
			if src.pending[i] != nil {
				t.Fatalf("popped slot %d still holds a request", i)
			}
		}
	}
	// Compaction bounds the slice at ~2× the live window (head may equal the
	// live tail length just before it fires), independent of run length.
	if bound := 2*live + 1; maxLen > bound {
		t.Fatalf("backing slice grew to %d over %d cycles with %d live (bound %d)",
			maxLen, cycles, live, bound)
	}
}
