package request

import "testing"

func TestPoolFIFOOrder(t *testing.T) {
	p := NewPool()
	r2 := New(2, Chat, 0.05, 5.0, 16, 8, 1)
	r1 := New(1, Chat, 0.05, 3.0, 16, 8, 1)
	r3 := New(3, Chat, 0.05, 5.0, 16, 8, 1) // same time as r2, higher ID
	p.Enqueue(r2)
	p.Enqueue(r1)
	p.Enqueue(r3)
	w := p.Waiting()
	if w[0] != r1 || w[1] != r2 || w[2] != r3 {
		t.Fatalf("waiting order: %d %d %d", w[0].ID, w[1].ID, w[2].ID)
	}
}

func TestAdmitMovesAndStamps(t *testing.T) {
	p := NewPool()
	r := New(1, Chat, 0.05, 0, 16, 8, 1)
	p.Enqueue(r)
	p.Admit(r, 2.5)
	if p.NumWaiting() != 0 || p.NumRunning() != 1 {
		t.Fatal("admit did not move the request")
	}
	if r.AdmitTime != 2.5 || r.Phase != Prefilling {
		t.Fatalf("admit time %g phase %s", r.AdmitTime, r.Phase)
	}
}

func TestAdmitPanicsIfNotWaiting(t *testing.T) {
	p := NewPool()
	r := New(1, Chat, 0.05, 0, 16, 8, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("admit of unqueued request did not panic")
		}
	}()
	p.Admit(r, 0)
}

// TestPreemptAndResume follows a prefill-complete request across a
// migration: removed from its source pool, marked Preempted, and resumed on
// the target pool.
func TestPreemptAndResume(t *testing.T) {
	src, p := NewPool(), NewPool()
	r := New(1, Chat, 0.05, 0, 16, 8, 1)
	src.Enqueue(r)
	src.Admit(r, 1)
	r.Phase = Decoding
	src.Remove(r)
	r.Phase = Preempted
	p.Enqueue(r)
	if src.NumRunning() != 0 || p.NumWaiting() != 1 {
		t.Fatal("migration did not move the request")
	}
	// Resuming flips straight to Decoding and keeps AdmitTime.
	p.Admit(r, 5)
	if r.Phase != Decoding {
		t.Fatalf("resumed phase %s", r.Phase)
	}
	if r.AdmitTime != 1 {
		t.Fatal("resume should keep the original admit time")
	}
}

func TestFinishRetiresDone(t *testing.T) {
	p := NewPool()
	r1 := New(1, Chat, 0.05, 0, 16, 1, 1)
	r2 := New(2, Chat, 0.05, 0, 16, 8, 1)
	for _, r := range []*Request{r1, r2} {
		p.Enqueue(r)
		p.Admit(r, 0)
		r.Phase = Decoding
	}
	r1.Phase = Done
	if moved := p.Finish(); moved != 1 {
		t.Fatalf("moved %d", moved)
	}
	if p.NumRunning() != 1 || len(p.Done()) != 1 {
		t.Fatal("finish bookkeeping wrong")
	}
	if p.Done()[0] != r1 {
		t.Fatal("wrong request retired")
	}
}

func TestPhaseViews(t *testing.T) {
	p := NewPool()
	r1 := New(1, Chat, 0.05, 0, 16, 8, 1)
	r2 := New(2, Chat, 0.05, 0, 16, 8, 1)
	for _, r := range []*Request{r1, r2} {
		p.Enqueue(r)
		p.Admit(r, 0)
	}
	r2.Phase = Decoding
	if got := p.PrefillingRequests(); len(got) != 1 || got[0] != r1 {
		t.Fatal("prefilling view wrong")
	}
	if got := p.DecodingRequests(); len(got) != 1 || got[0] != r2 {
		t.Fatal("decoding view wrong")
	}
}

// TestPhaseViewsReuseBuffers pins the views' lifetime contract: each fills
// its own pool-owned buffer, so a warm view allocates nothing, the two
// views never overwrite each other, and a caller's append copies instead
// of writing into the buffer.
func TestPhaseViewsReuseBuffers(t *testing.T) {
	p := NewPool()
	var reqs []*Request
	for id := 0; id < 6; id++ {
		r := New(id, Chat, 0.05, 0, 16, 8, 1)
		p.Enqueue(r)
		p.Admit(r, 0)
		if id%2 == 1 {
			r.Phase = Decoding
		}
		reqs = append(reqs, r)
	}
	dec, pre := p.DecodingRequests(), p.PrefillingRequests()
	if len(dec) != 3 || len(pre) != 3 || dec[0] != reqs[1] || pre[0] != reqs[0] {
		t.Fatalf("views %d decoding, %d prefilling", len(dec), len(pre))
	}
	grown := append(dec, reqs[0])
	if again := p.DecodingRequests(); len(again) != 3 || again[0] != reqs[1] || &grown[0] == &again[0] {
		t.Fatal("an append to the decoding view wrote into the pool's buffer")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		p.DecodingRequests()
		p.PrefillingRequests()
	}); allocs != 0 {
		t.Fatalf("warm views allocate %v times per call pair", allocs)
	}
}
