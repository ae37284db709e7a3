package request

import (
	"math"
	"reflect"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

func newReq(t *testing.T) *Request {
	t.Helper()
	r := New(1, Coding, 0.040, 10.0, 128, 64, 42)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCategoryAndPhaseStrings(t *testing.T) {
	if Coding.String() != "coding" || Chat.String() != "chat" || Summarization.String() != "summarization" {
		t.Fatal("category names wrong")
	}
	if Category(9).String() == "" || Phase(9).String() == "" {
		t.Fatal("unknown enum should render")
	}
	for _, p := range []Phase{Queued, Prefilling, Decoding, Preempted, Done} {
		if p.String() == "" {
			t.Fatal("phase name empty")
		}
	}
	if NumCategories != 3 {
		t.Fatalf("NumCategories = %d", NumCategories)
	}
}

func TestNewDefaults(t *testing.T) {
	r := newReq(t)
	if r.Phase != Queued {
		t.Fatal("new request should be queued")
	}
	if r.FirstDecodeTime >= 0 || r.FirstTokenTime >= 0 || r.DoneTime >= 0 || r.AdmitTime >= 0 {
		t.Fatal("timestamps should start unset")
	}
	if r.Priority != int(Coding) {
		t.Fatal("priority should derive from category")
	}
	if r.Ctx.ReqSeed != 42 {
		t.Fatal("context seed not set")
	}
}

func TestValidateRejectsBadRequests(t *testing.T) {
	bad := []*Request{
		New(1, Chat, 0, 0, 10, 10, 1),
		New(2, Chat, 0.05, 0, 0, 10, 1),
		New(3, Chat, 0.05, 0, 10, 0, 1),
	}
	for _, r := range bad {
		if r.Validate() == nil {
			t.Errorf("request %d should not validate", r.ID)
		}
	}
}

func TestCommitLifecycle(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 3, 7)
	r.Phase = Decoding
	r.FirstDecodeTime = 1.0

	kept := r.Commit([]lm.Token{10, 11}, 1.1)
	if kept != 2 || r.OutputLen() != 2 {
		t.Fatalf("kept=%d len=%d", kept, r.OutputLen())
	}
	if r.FirstTokenTime != 1.1 {
		t.Fatal("first token time not stamped")
	}
	if r.Phase != Decoding {
		t.Fatal("phase should stay decoding")
	}

	// Third token completes; fourth is clipped.
	kept = r.Commit([]lm.Token{12, 13}, 1.2)
	if kept != 1 {
		t.Fatalf("clip kept %d", kept)
	}
	if r.Phase != Done || r.DoneTime != 1.2 {
		t.Fatal("completion not recorded")
	}
	if r.OutputLen() != 3 {
		t.Fatalf("output len %d", r.OutputLen())
	}
	if r.AcceptedTokens != 3 {
		t.Fatalf("accepted tokens %d", r.AcceptedTokens)
	}
}

func TestCommitExtendsContext(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 10, 7)
	before := r.Ctx
	r.Commit([]lm.Token{5, 6}, 1)
	if r.Ctx != before.Extend(5).Extend(6) {
		t.Fatalf("context %+v, want the prior context extended by 5, 6", r.Ctx)
	}
}

// TestCommitPrefixAndCorrection pins the speculative commit: an accepted
// prefix and its correction token go through one Commit, which keeps and
// stamps exactly what committing the prefix and then the correction
// separately would. The budget may run out mid-prefix, exactly at the
// prefix's end (the correction lands on a done request and is dropped), or
// on the correction itself.
func TestCommitPrefixAndCorrection(t *testing.T) {
	cases := []struct {
		name     string
		budget   int
		prefix   []lm.Token
		wantKept int
		wantDone bool
	}{
		{"under budget", 5, []lm.Token{5, 6}, 3, false},
		{"correction completes", 3, []lm.Token{5, 6}, 3, true},
		{"correction on a done request", 2, []lm.Token{5, 6}, 2, true},
		{"clip mid-prefix", 2, []lm.Token{5, 6, 7}, 2, true},
		{"bonus token alone", 1, nil, 1, true},
	}
	const correction = lm.Token(9)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			one := New(1, Chat, 0.05, 0, 16, c.budget+1, 7)
			two := New(1, Chat, 0.05, 0, 16, c.budget+1, 7)
			one.Commit([]lm.Token{1}, 1)
			two.Commit([]lm.Token{1}, 1)
			kept := one.Commit(append(c.prefix[:len(c.prefix):len(c.prefix)], correction), 2)
			split := two.Commit(c.prefix, 2)
			split += two.Commit([]lm.Token{correction}, 2)
			if kept != c.wantKept || split != c.wantKept {
				t.Fatalf("kept %d in one commit, %d in two; want %d", kept, split, c.wantKept)
			}
			if done := one.Phase == Done; done != c.wantDone || one.Phase != two.Phase || one.DoneTime != two.DoneTime {
				t.Fatalf("phase %s done at %g, split %s done at %g; want done %v", one.Phase, one.DoneTime, two.Phase, two.DoneTime, c.wantDone)
			}
			if c.wantDone && one.DoneTime != 2 {
				t.Fatalf("done at %g, want 2", one.DoneTime)
			}
			if one.FirstTokenTime != 1 || two.FirstTokenTime != 1 || one.AcceptedTokens != 1+c.wantKept ||
				one.AcceptedTokens != two.AcceptedTokens || one.OutputLen() != two.OutputLen() || one.Ctx != two.Ctx {
				t.Fatalf("one commit diverged from two: %+v vs %+v", one, two)
			}
		})
	}
}

// TestCommitCountMatchesCommit pins the non-speculative commit: the same
// bookkeeping as a token commit — count, clipping, first-token and
// completion stamps — but the decoding context stays untouched.
func TestCommitCountMatchesCommit(t *testing.T) {
	a := New(1, Chat, 0.05, 0, 16, 3, 7)
	b := New(1, Chat, 0.05, 0, 16, 3, 7)
	ka := a.Commit([]lm.Token{5}, 1)
	kb := b.CommitCount(1, 1)
	ka += a.Commit([]lm.Token{6, 8, 9}, 2) // clips at MaxNewTokens
	kb += b.CommitCount(3, 2)
	if ka != 3 || kb != 3 || a.Phase != b.Phase || a.DoneTime != b.DoneTime ||
		a.FirstTokenTime != b.FirstTokenTime || a.AcceptedTokens != b.AcceptedTokens ||
		a.OutputLen() != b.OutputLen() || a.ContextLen() != b.ContextLen() {
		t.Fatalf("CommitCount state diverged from Commit: %+v vs %+v", a, b)
	}
	if b.Ctx != (lm.Context{ReqSeed: 7}) {
		t.Fatalf("CommitCount extended the context: %+v", b.Ctx)
	}
	if b.CommitCount(1, 3) != 0 || b.OutputLen() != 3 || b.AcceptedTokens != 3 {
		t.Fatal("commit past completion kept tokens")
	}
}

// TestLateCommitKeepsDoneTime pins the completion stamp: a commit that
// reaches a request already done at t = 2 keeps no token and leaves its
// phase, completion time and first-token time alone, whichever commit
// method makes it.
func TestLateCommitKeepsDoneTime(t *testing.T) {
	for name, late := range map[string]func(r *Request) int{
		"CommitCount": func(r *Request) int { return r.CommitCount(1, 3) },
		"Commit":      func(r *Request) int { return r.Commit([]lm.Token{4, 5}, 3) },
	} {
		r := New(1, Chat, 0.05, 0, 16, 3, 7)
		r.Commit([]lm.Token{1}, 1)
		r.Commit([]lm.Token{2, 3}, 2)
		if r.Phase != Done || r.DoneTime != 2 {
			t.Fatalf("setup: phase %s done at %g, want done at 2", r.Phase, r.DoneTime)
		}
		if kept := late(r); kept != 0 {
			t.Errorf("%s on a done request kept %d tokens", name, kept)
		}
		if r.Phase != Done || r.DoneTime != 2 || r.FirstTokenTime != 1 || r.OutputLen() != 3 {
			t.Errorf("%s at t = 3 moved the request: phase %s, done %g, first token %g, output %d",
				name, r.Phase, r.DoneTime, r.FirstTokenTime, r.OutputLen())
		}
	}
}

func TestDecodeLatency(t *testing.T) {
	r := newReq(t)
	if r.decodeLatency(99) != 0 {
		t.Fatal("latency before decoding should be 0")
	}
	r.FirstDecodeTime = 10
	if got := r.decodeLatency(12.5); got != 2.5 {
		t.Fatalf("latency %g", got)
	}
}

func TestMinAcceptForSLO(t *testing.T) {
	r := newReq(t) // SLO 40ms
	r.FirstDecodeTime = 0
	r.Generated = 4 // o_i = 4

	// At now=0.2s with tspec=0.04: A = (0.2+0.04)/0.04 - 4 = 2.
	got := r.MinAcceptForSLO(0.2, 0.04)
	if math.Abs(got-2) > 1e-9 {
		t.Fatalf("A(r) = %g, want 2", got)
	}
	// Ahead of schedule: negative A.
	r.Generated = 10
	if r.MinAcceptForSLO(0.2, 0.04) >= 0 {
		t.Fatal("ahead-of-SLO request should have negative A")
	}
	// Tighter target raises A.
	if r.MinAcceptFor(0.2, 0.04, 0.020) <= r.MinAcceptFor(0.2, 0.04, 0.040) {
		t.Fatal("halving the target should raise A")
	}
}

func TestAvgTPOTAndAttainment(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 16, 10, 7)
	if r.AvgTPOT(1) != 0 {
		t.Fatal("TPOT before decode should be 0")
	}
	r.FirstDecodeTime = 1.0
	toks := make([]lm.Token, 10)
	r.Commit(toks, 1.4) // 10 tokens in 0.4s -> 40ms/token
	if got := r.AvgTPOT(99); math.Abs(got-0.04) > 1e-9 {
		t.Fatalf("TPOT %g", got)
	}
	if !r.AttainedSLO() {
		t.Fatal("40ms <= 50ms SLO should attain")
	}
	// A slower request violates.
	r2 := New(2, Chat, 0.05, 0, 16, 10, 7)
	r2.FirstDecodeTime = 1.0
	r2.Commit(toks, 1.6) // 60ms/token
	if r2.AttainedSLO() {
		t.Fatal("60ms > 50ms SLO should violate")
	}
}

func TestAttainedSLORequiresCompletion(t *testing.T) {
	r := newReq(t)
	r.FirstDecodeTime = 0
	r.Commit([]lm.Token{1}, 0.001)
	if r.Phase == Done {
		t.Fatal("not done yet")
	}
	if r.AttainedSLO() {
		t.Fatal("incomplete request cannot attain")
	}
}

func TestTTFT(t *testing.T) {
	r := newReq(t) // arrival 10.0
	if r.TTFT() != -1 {
		t.Fatal("TTFT before first token should be -1")
	}
	r.Commit([]lm.Token{1}, 10.7)
	if math.Abs(r.TTFT()-0.7) > 1e-9 {
		t.Fatalf("TTFT %g", r.TTFT())
	}
}

func TestContextAndPrefillAccounting(t *testing.T) {
	r := newReq(t) // prompt 128
	if r.ContextLen() != 128 {
		t.Fatal("context = prompt before output")
	}
	if r.RemainingPrefill() != 128 {
		t.Fatal("nothing prefilled yet")
	}
	r.PrefillDone = 100
	if r.RemainingPrefill() != 28 {
		t.Fatal("remaining prefill wrong")
	}
	r.Commit([]lm.Token{1, 2}, 1)
	if r.ContextLen() != 130 {
		t.Fatal("context should include output")
	}
}

// seedsOf reads the seeds of prompt positions [start, start+n).
func seedsOf(r *Request, start, n int) []uint64 {
	out := make([]uint64, n)
	r.FillPromptSeeds(start, out)
	return out
}

// TestPromptSeedsSegments covers the seg-aware prompt content derivation the
// prefix cache hashes: segment boundaries, windows that start mid-prompt,
// the no-segment fallback to request-private content, and the short-segment
// padding guard.
func TestPromptSeedsSegments(t *testing.T) {
	r := New(1, Chat, 0.05, 0, 8, 4, 99)
	if r.PromptTokens() != 8 {
		t.Fatalf("PromptTokens = %d, want 8", r.PromptTokens())
	}
	plain := seedsOf(r, 0, 8)
	if again := seedsOf(r, 0, 8); !reflect.DeepEqual(plain, again) {
		t.Fatal("FillPromptSeeds not deterministic")
	}
	if got := seedsOf(r, 3, 4); !reflect.DeepEqual(got, plain[3:7]) {
		t.Fatal("mid-prompt window diverged from the full read")
	}
	r.FillPromptSeeds(8, nil) // an empty window at the end is in range
	for _, w := range [][2]int{{-1, 1}, {0, 9}, {7, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("window [%d, %d) outside the prompt did not panic", w[0], w[0]+w[1])
				}
			}()
			r.FillPromptSeeds(w[0], make([]uint64, w[1]))
		}()
	}

	// Two requests sharing a segment agree exactly over it and nowhere else.
	shared := PromptSegment{Seed: 0xabc, Len: 5}
	a := New(2, Chat, 0.05, 0, 8, 4, 7)
	a.PromptSegs = []PromptSegment{shared, {Seed: 1, Len: 3}}
	b := New(3, Chat, 0.05, 0, 8, 4, 8)
	b.PromptSegs = []PromptSegment{shared, {Seed: 2, Len: 3}}
	sa, sb := seedsOf(a, 0, 8), seedsOf(b, 0, 8)
	if !reflect.DeepEqual(sa[:5], sb[:5]) {
		t.Fatal("shared segment produced different content")
	}
	if reflect.DeepEqual(sa[5:], sb[5:]) {
		t.Fatal("private tails collided")
	}

	// Windows stop mid-segment and cross segment boundaries.
	if got := seedsOf(a, 0, 6); !reflect.DeepEqual(got, sa[:6]) {
		t.Fatal("mid-segment truncation diverged from the full read")
	}
	if got := seedsOf(a, 4, 3); !reflect.DeepEqual(got, sa[4:7]) {
		t.Fatal("boundary-crossing window diverged from the full read")
	}

	// Segments shorter than PromptLen pad with request-private content.
	c := New(4, Chat, 0.05, 0, 8, 4, 11)
	c.PromptSegs = []PromptSegment{{Seed: 0xabc, Len: 5}}
	sc := seedsOf(c, 0, 8)
	d := New(5, Chat, 0.05, 0, 8, 4, 12)
	d.PromptSegs = []PromptSegment{{Seed: 0xabc, Len: 5}}
	if reflect.DeepEqual(sc[5:], seedsOf(d, 0, 8)[5:]) {
		t.Fatal("padding aliased across requests")
	}
}

// referenceSeeds is the per-position definition of prompt content that
// FillPromptSeeds streams: position p lies in the first segment whose
// cumulative span covers it and takes Hash2(seg.Seed, offset); positions no
// segment covers (no segments at all, or segments summing short of the
// prompt) take the request-private Hash2(Seed, p).
func referenceSeeds(r *Request) []uint64 {
	out := make([]uint64, r.PromptLen)
	for p := range out {
		out[p] = mathutil.Hash2(r.seed, uint64(p))
		off := p
		for _, seg := range r.PromptSegs {
			if seg.Len <= 0 {
				continue
			}
			if off < seg.Len {
				out[p] = mathutil.Hash2(seg.Seed, uint64(off))
				break
			}
			off -= seg.Len
		}
	}
	return out
}

// FuzzPromptSeeds checks every streamed window — across segment boundaries,
// past the segments into padding, over empty and negative-length segments —
// against the per-position reference.
func FuzzPromptSeeds(f *testing.F) {
	f.Add(uint64(1), []byte{5, 3}, uint16(8), uint16(0), uint16(8))
	f.Add(uint64(2), []byte{4}, uint16(10), uint16(3), uint16(5))
	f.Add(uint64(3), []byte{}, uint16(6), uint16(2), uint16(3))
	f.Add(uint64(4), []byte{0, 7, 0xff, 2}, uint16(12), uint16(6), uint16(6))
	f.Add(uint64(5), []byte{16, 16, 16}, uint16(40), uint16(14), uint16(20))
	f.Fuzz(func(t *testing.T, seed uint64, lens []byte, promptLen, start, n uint16) {
		r := New(1, Chat, 0.05, 0, int(promptLen%512), 1, seed)
		for i, l := range lens {
			if i == 16 {
				break
			}
			// Bytes ≥ 0xf0 encode the negative lengths a malformed
			// decomposition could carry; they contribute no tokens.
			segLen := int(l)
			if l >= 0xf0 {
				segLen = -int(l & 0x0f)
			}
			r.PromptSegs = append(r.PromptSegs, PromptSegment{Seed: mathutil.Hash2(seed, uint64(i)), Len: segLen})
		}
		if r.PromptLen == 0 {
			r.FillPromptSeeds(0, nil)
			return
		}
		s := int(start) % r.PromptLen
		w := int(n) % (r.PromptLen - s + 1)
		got := make([]uint64, w)
		r.FillPromptSeeds(s, got)
		want := referenceSeeds(r)[s : s+w]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d, %d) of %d over %v:\n got %v\nwant %v", s, s+w, r.PromptLen, r.PromptSegs, got, want)
		}
	})
}
