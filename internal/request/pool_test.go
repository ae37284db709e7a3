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
