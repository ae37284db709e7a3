package request

import (
	"strings"
	"testing"
	"unsafe"

	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
)

// mustPanic fails the test unless f panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", msg, want)
		}
	}()
	f()
}

func TestPoolRemove(t *testing.T) {
	for _, tc := range []struct {
		name  string
		admit bool
	}{
		{"running", true},
		{"waiting", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewPool()
			r, other := New(1, Chat, 0.05, 0, 16, 8, 1), New(2, Chat, 0.05, 1, 16, 8, 2)
			p.Enqueue(r)
			p.Enqueue(other)
			if tc.admit {
				p.Admit(r, 0)
			}
			phase := r.Phase
			p.Remove(r)
			if len(p.Running()) != 0 || p.NumWaiting() != 1 || p.Waiting()[0] != other {
				t.Fatalf("after Remove: running %v, waiting %v", p.Running(), p.Waiting())
			}
			if r.Phase != phase {
				t.Fatalf("Remove touched the lifecycle: phase %s", r.Phase)
			}
		})
	}
	t.Run("not resident", func(t *testing.T) {
		p := NewPool()
		r := New(3, Chat, 0.05, 0, 16, 8, 1)
		mustPanic(t, "remove of 3 not resident", func() { p.Remove(r) })
	})
}

func TestPoolAdoptDone(t *testing.T) {
	p := NewPool()
	r := New(1, Chat, 0.05, 0, 16, 8, 1)
	r.Phase = Done
	p.AdoptDone(r)
	if len(p.Done()) != 1 || p.Done()[0] != r || p.NumWaiting() != 0 || p.NumRunning() != 0 {
		t.Fatal("adopted request not retired straight to done")
	}
	for _, ph := range []Phase{Queued, Prefilling, Decoding, Preempted} {
		r := New(2, Chat, 0.05, 0, 16, 8, 1)
		r.Phase = ph
		mustPanic(t, "adopt-done of 2 in phase "+ph.String(), func() { p.AdoptDone(r) })
	}
}

func TestOrderForReplay(t *testing.T) {
	in := []*Request{
		New(5, Chat, 0.05, 2, 16, 8, 1),
		New(3, Chat, 0.05, 1, 16, 8, 1),
		New(4, Chat, 0.05, 1, 16, 8, 1),
		New(1, Chat, 0.05, 2, 16, 8, 1),
		New(2, Chat, 0.05, 0, 16, 8, 1),
	}
	got, err := OrderForReplay(in)
	if err != nil {
		t.Fatal(err)
	}
	// Arrival first, ties broken by ID.
	for i, want := range []int{2, 3, 4, 1, 5} {
		if got[i].ID != want {
			t.Fatalf("position %d holds request %d, want %d", i, got[i].ID, want)
		}
	}
	if in[0].ID != 5 || in[4].ID != 2 {
		t.Fatal("OrderForReplay reordered its input")
	}
	for _, tc := range []struct {
		name string
		bad  *Request
	}{
		{"zero SLO", New(9, Chat, 0, 0, 16, 8, 1)},
		{"empty prompt", New(9, Chat, 0.05, 0, 0, 8, 1)},
		{"no output", New(9, Chat, 0.05, 0, 16, 0, 1)},
	} {
		if _, err := OrderForReplay([]*Request{in[0], tc.bad}); err == nil {
			t.Errorf("%s: invalid request accepted", tc.name)
		}
	}
}

func TestCloneResetsLifecycle(t *testing.T) {
	segs := []PromptSegment{{Seed: 11, Len: 10}, {Seed: 12, Len: 6}}
	r := New(7, Coding, 0.03, 1.5, 16, 8, 99)
	r.TTFTSLO = 2
	r.PromptSegs = segs
	r.PrefixChain = new(kvcache.Chain)
	r.Phase = Decoding
	r.PrefillDone = 16
	r.Commit([]lm.Token{4, 5}, 3)
	r.AdmitTime = 2

	for _, cp := range append([]*Request{r.Clone()}, CloneAll([]*Request{r, r})...) {
		if cp == r {
			t.Fatal("clone aliases the original")
		}
		if cp.ID != 7 || cp.Category != Coding || cp.TPOTSLO != 0.03 || cp.TTFTSLO != 2 ||
			cp.ArrivalTime != 1.5 || cp.PromptLen != 16 || cp.MaxNewTokens != 8 || cp.seed != 99 {
			t.Fatalf("trace fields not copied: %+v", cp)
		}
		if cp.Phase != Queued || cp.PrefillDone != 0 || cp.OutputLen() != 0 ||
			cp.AdmitTime != -1 || cp.FirstTokenTime != -1 || cp.DoneTime != -1 ||
			cp.Ctx != (lm.Context{ReqSeed: 99}) {
			t.Fatalf("lifecycle not reset: %+v", cp)
		}
		if &cp.PromptSegs[0] != &segs[0] {
			t.Fatal("clone copied PromptSegs instead of sharing them")
		}
		if cp.PrefixChain != nil {
			t.Fatal("clone shares the original's fingerprint chain")
		}
	}
	if len(CloneAll(nil)) != 0 {
		t.Fatal("CloneAll of nothing returned requests")
	}
}

func TestDegrade(t *testing.T) {
	for _, tc := range []struct {
		name       string
		slo        float64
		bestEffort float64
		wantSLO    float64
	}{
		{"tight SLO loosens", 0.03, 0.2, 0.2},
		{"looser SLO kept", 0.5, 0.2, 0.5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := New(1, Coding, tc.slo, 0, 16, 8, 1)
			r.TTFTSLO = 1
			r.Degrade(tc.bestEffort)
			if !r.Degraded || r.DegradedFrom != Coding || r.Category != Summarization ||
				r.Priority != int(Summarization) || r.TPOTSLO != tc.wantSLO || r.TTFTSLO != 0 || !r.NoSpec {
				t.Fatalf("degraded request %+v", r)
			}
			// Idempotent: a second gate neither re-attributes nor re-loosens.
			r.Degrade(10)
			if r.DegradedFrom != Coding || r.TPOTSLO != tc.wantSLO {
				t.Fatalf("second Degrade changed the request: from %s, SLO %g", r.DegradedFrom, r.TPOTSLO)
			}
		})
	}
}

func TestResetForRetry(t *testing.T) {
	r := New(1, Chat, 0.05, 4, 16, 8, 21)
	r.Degrade(0.2)
	r.Phase = Decoding
	r.PrefillDone = 16
	r.Commit([]lm.Token{1, 2, 3}, 6)
	r.AdmitTime, r.FirstDecodeTime = 5, 5.5
	r.VerifySteps, r.AcceptedTokens = 2, 3
	r.Recompute = true
	r.ReloadStall = 0.1

	r.ResetForRetry()
	if r.Phase != Queued || r.PrefillDone != 0 || r.OutputLen() != 0 || r.Ctx != (lm.Context{ReqSeed: 21}) ||
		r.AdmitTime != -1 || r.FirstDecodeTime != -1 || r.FirstTokenTime != -1 || r.DoneTime != -1 ||
		r.VerifySteps != 0 || r.AcceptedTokens != 0 || r.Recompute || r.ReloadStall != 0 {
		t.Fatalf("computed state survived the reset: %+v", r)
	}
	if r.ArrivalTime != 4 || r.Retries != 1 || !r.Degraded || r.DegradedFrom != Chat ||
		r.Category != Summarization {
		t.Fatalf("identity, arrival or history lost: %+v", r)
	}
	r.ResetForRetry()
	if r.Retries != 2 {
		t.Fatalf("retries %d after two resets", r.Retries)
	}
}

func TestAttainedTTFT(t *testing.T) {
	for _, tc := range []struct {
		name        string
		slo, first  float64
		wantAttains bool
	}{
		{"no TTFT SLO", 0, -1, true},
		{"no token yet", 1, -1, false},
		{"on time", 1, 10.5, true},
		{"at the deadline", 1, 11, true},
		{"late", 1, 11.5, false},
	} {
		r := New(1, Chat, 0.05, 10, 16, 8, 1)
		r.TTFTSLO = tc.slo
		r.FirstTokenTime = tc.first
		if got := r.AttainedTTFT(); got != tc.wantAttains {
			t.Errorf("%s: AttainedTTFT = %v, want %v", tc.name, got, tc.wantAttains)
		}
	}
}

// TestRequestFitsItsSizeClass pins Request at 240 bytes, exactly one of the
// allocator's size classes: one more word moves every request into the
// 256-byte class, and every workload that keeps its requests (all of them)
// pays for it in live heap. A new field must fit in existing padding (the
// bool flags sit together for that reason) or pay for itself.
func TestRequestFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Request{}); size > 240 {
		t.Fatalf("Request is %d bytes, over the 240-byte size class", size)
	}
}
