package engine

import (
	"reflect"
	"testing"

	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/toktree"
)

func newEngine(t *testing.T) *Engine {
	t.Helper()
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.88, 2)
	e, err := New(Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func decodingReq(id int, prompt, maxNew int) *request.Request {
	r := request.New(id, request.Chat, 0.05, 0, prompt, maxNew, uint64(id)*31+7)
	r.Phase = request.Decoding
	r.PrefillDone = prompt
	return r
}

func TestNewRequiresTarget(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("engine without target accepted")
	}
}

func TestPrefillAdvancesAndFlips(t *testing.T) {
	e := newEngine(t)
	r := request.New(1, request.Chat, 0.05, 0, 100, 10, 7)
	r.Phase = request.Prefilling

	lat := e.Pass(nil, []PrefillItem{{Req: r, Chunk: 60}})
	if lat <= 0 {
		t.Fatal("prefill should cost time")
	}
	if r.PrefillDone != 60 || r.Phase != request.Prefilling {
		t.Fatalf("after chunk: done=%d phase=%s", r.PrefillDone, r.Phase)
	}
	// The second chunk's 40 tokens attend over the 60 already computed plus
	// themselves: the pass prices exactly that shape.
	want := newEngine(t).TargetCost().ForwardLatency(gpu.BatchShape{Tokens: 40, Seqs: 1, KVTokens: 40*60 + 40*41/2})
	if lat2 := e.Pass(nil, []PrefillItem{{Req: r, Chunk: 40}}); lat2 != want {
		t.Fatalf("second chunk cost %g, want the 40-token shape's %g", lat2, want)
	}
	if r.Phase != request.Decoding {
		t.Fatal("completed prefill should flip to decoding")
	}
}

func TestPrefillPanicsOnOverChunk(t *testing.T) {
	e := newEngine(t)
	r := request.New(1, request.Chat, 0.05, 0, 100, 10, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("over-sized chunk did not panic")
		}
	}()
	e.Pass(nil, []PrefillItem{{Req: r, Chunk: 101}})
}

func TestPrefillLongerPromptsCostMore(t *testing.T) {
	e := newEngine(t)
	r1 := request.New(1, request.Chat, 0.05, 0, 100, 10, 7)
	r2 := request.New(2, request.Chat, 0.05, 0, 2000, 10, 7)
	l1 := e.Pass(nil, []PrefillItem{{Req: r1, Chunk: 100}})
	l2 := e.Pass(nil, []PrefillItem{{Req: r2, Chunk: 2000}})
	if l2 <= l1 {
		t.Fatalf("2000-token prefill (%.2fms) not dearer than 100 (%.2fms)", 1e3*l2, 1e3*l1)
	}
}

func TestDecodeBatchOneTokenEach(t *testing.T) {
	e := newEngine(t)
	reqs := []*request.Request{decodingReq(1, 64, 10), decodingReq(2, 64, 10)}
	lat := e.Pass(reqs, nil)
	// One token per request, each attending over its 64-token context plus
	// itself.
	want := newEngine(t).TargetCost().ForwardLatency(gpu.BatchShape{Tokens: 2, Seqs: 2, KVTokens: 2 * 65})
	if lat <= 0 || lat != want {
		t.Fatalf("decode pass cost %g, want the one-token-each shape's %g", lat, want)
	}
}

func TestDecodeBatchOrderIndependence(t *testing.T) {
	// The same requests in a different slice order must cost the same pass:
	// nothing a decode pass computes depends on batch order.
	mk := func(order []int) float64 {
		e := newEngine(t)
		reqs := make([]*request.Request, len(order))
		for i, id := range order {
			reqs[i] = decodingReq(id, 64*id, 10)
		}
		return e.Pass(reqs, nil)
	}
	la := mk([]int{1, 2, 3})
	lb := mk([]int{3, 1, 2})
	if la != lb {
		t.Fatalf("reordered batch differs: %g vs %g", la, lb)
	}
}

func TestDecodeBatchEmpty(t *testing.T) {
	e := newEngine(t)
	if lat := e.Pass(nil, nil); lat != 0 {
		t.Fatal("empty batch should be free")
	}
	// An empty pass captures no graph: the first real pass still pays the
	// capture, exactly as on a fresh engine.
	reqs := []*request.Request{decodingReq(1, 64, 10)}
	if got, want := e.Pass(reqs, nil), newEngine(t).Pass(reqs, nil); got != want {
		t.Fatalf("pass after an empty one cost %g, fresh engine %g", got, want)
	}
}

// countingModel counts Dist calls on the model it wraps.
type countingModel struct {
	lm.Model
	calls int
}

func (m *countingModel) Dist(ctx lm.Context) lm.Dist {
	m.calls++
	return m.Model.Dist(ctx)
}

// TestPlainDecodeNeverReadsTokens pins the engine's token-identity contract:
// the non-speculative passes (Pass) never query the target
// model, and so never draw from the engine RNG — a verification pass returns
// the same result whether or not plain decode passes ran before it on the
// same engine.
func TestPlainDecodeNeverReadsTokens(t *testing.T) {
	build := func() (*Engine, *countingModel) {
		target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
		counted := &countingModel{Model: target}
		e, err := New(Config{
			Target: counted, Draft: lm.MustDraftLM(target, 0.88, 2),
			TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
			DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
			Seed:       3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e, counted
	}
	// verify runs a few speculate-verify iterations over a batch and
	// returns every verification result, copied out of the engine's pools.
	verify := func(e *Engine) []toktree.VerifyResult {
		reqs := make([]*request.Request, 6)
		for i := range reqs {
			reqs[i] = decodingReq(10+i, 64, 50)
		}
		var out []toktree.VerifyResult
		for step := 0; step < 4; step++ {
			spec, err := e.SpeculateBeams(reqs, 4, 2)
			if err != nil {
				t.Fatal(err)
			}
			items := make([]VerifyItem, len(reqs))
			for i, tr := range spec.Trees {
				sel := toktree.Prefix(tr, tr.Size())
				items[i] = VerifyItem{Req: reqs[i], Sel: sel}
			}
			for i, vr := range e.VerifyTrees(items, nil).Results {
				cp := *vr
				cp.Accepted = append([]lm.Token(nil), vr.Accepted...)
				out = append(out, cp)
				CommitVerify(reqs[i], vr, float64(step))
			}
		}
		return out
	}

	fresh, _ := build()
	want := verify(fresh)

	e, counted := build()
	for i := 0; i < 5; i++ {
		dec := []*request.Request{decodingReq(1, 64, 10), decodingReq(2, 80, 10)}
		pre := request.New(3, request.Chat, 0.05, 0, 96, 10, 5)
		pre.Phase = request.Prefilling
		e.Pass(dec, nil)
		e.Pass(dec, []PrefillItem{{Req: pre, Chunk: 32}})
	}
	if counted.calls != 0 {
		t.Fatalf("plain decode passes made %d target Dist calls, want 0", counted.calls)
	}
	got := verify(e)
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("verification %d after plain decode passes %+v, on a fresh engine %+v", i, got[i], want[i])
		}
	}
}

func TestSpeculateBeamsShapesAndCost(t *testing.T) {
	e := newEngine(t)
	reqs := []*request.Request{decodingReq(1, 64, 50), decodingReq(2, 64, 50)}
	res, err := e.SpeculateBeams(reqs, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trees) != 2 {
		t.Fatal("one tree per request")
	}
	for i, tr := range res.Trees {
		// Every node hangs off the root exactly once, and no child is more
		// probable than its parent.
		seen := make([]bool, tr.Size())
		var walk func(id int)
		walk = func(id int) {
			if seen[id] {
				t.Fatalf("tree %d: node %d reached twice", i, id)
			}
			seen[id] = true
			for _, c := range tr.Nodes[id].Children {
				if tr.Nodes[c].PathProb > tr.Nodes[id].PathProb {
					t.Fatalf("tree %d: node %d path prob %g exceeds its parent's %g", i, c, tr.Nodes[c].PathProb, tr.Nodes[id].PathProb)
				}
				walk(c)
			}
		}
		walk(0)
		for id, ok := range seen {
			if !ok {
				t.Fatalf("tree %d: node %d unreachable from the root", i, id)
			}
		}
		var height func(id int) int
		height = func(id int) int {
			h := 0
			for _, c := range tr.Nodes[id].Children {
				h = max(h, 1+height(c))
			}
			return h
		}
		if depth := height(0); depth != 4 {
			t.Fatalf("tree %d depth %d", i, depth)
		}
	}
	if res.GPUTime <= 0 {
		t.Fatal("speculation must cost draft time")
	}
	// Step 1 drafts the 2 roots, steps 2-4 the 2x3 beam tokens, all over
	// the shared 64-token contexts.
	cost := newEngine(t).draftCost
	want := 0.0
	for step := 1; step <= 4; step++ {
		tokens := 2
		if step > 1 {
			tokens = 2 * 3
		}
		want += cost.ForwardLatency(gpu.BatchShape{Tokens: tokens, Seqs: 2, KVTokens: 2*64 + 2*step})
	}
	if res.GPUTime != want {
		t.Fatalf("speculation cost %g, want the four draft steps' %g", res.GPUTime, want)
	}
}

func TestSpeculateBeamsDepthZero(t *testing.T) {
	e := newEngine(t)
	reqs := []*request.Request{decodingReq(1, 64, 50)}
	res, err := e.SpeculateBeams(reqs, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trees[0].Size() != 1 || res.GPUTime != 0 {
		t.Fatal("depth 0 should be a free bare root")
	}
}

func TestSpeculateRequiresDraft(t *testing.T) {
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	e, err := New(Config{
		Target:     target,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SpeculateBeams([]*request.Request{decodingReq(1, 8, 4)}, 2, 2); err == nil {
		t.Fatal("speculation without draft accepted")
	}
}

func TestVerifyTreesCommitsViaHelper(t *testing.T) {
	e := newEngine(t)
	r := decodingReq(1, 64, 50)
	spec, err := e.SpeculateBeams([]*request.Request{r}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel := toktree.Prefix(spec.Trees[0], spec.Trees[0].Size())
	ver := e.VerifyTrees([]VerifyItem{{Req: r, Sel: sel}}, nil)
	if ver.GPUTime <= 0 || ver.tokensVerified != sel.Size() {
		t.Fatalf("verify result %+v", ver)
	}
	kept := CommitVerify(r, ver.Results[0], 1.0)
	if kept < 1 {
		t.Fatal("verification must commit at least one token")
	}
	if r.OutputLen() != kept || r.VerifySteps != 1 {
		t.Fatalf("request state len=%d steps=%d", r.OutputLen(), r.VerifySteps)
	}
}

func TestVerifyTreesWithPrefillSharesPass(t *testing.T) {
	e := newEngine(t)
	r := decodingReq(1, 64, 50)
	pre := request.New(2, request.Summarization, 0.15, 0, 500, 20, 9)
	pre.Phase = request.Prefilling

	spec, err := e.SpeculateBeams([]*request.Request{r}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	sel := toktree.Prefix(spec.Trees[0], 1)
	combined := e.VerifyTrees(
		[]VerifyItem{{Req: r, Sel: sel}},
		[]PrefillItem{{Req: pre, Chunk: 128}},
	)
	if pre.PrefillDone != 128 {
		t.Fatal("co-batched prefill did not advance")
	}

	// The combined pass must be cheaper than two separate passes (shared
	// weight load) — compare against fresh engines to avoid graph-cache
	// interference.
	e2 := newEngine(t)
	r2 := decodingReq(1, 64, 50)
	pre2 := request.New(2, request.Summarization, 0.15, 0, 500, 20, 9)
	pre2.Phase = request.Prefilling
	spec2, _ := e2.SpeculateBeams([]*request.Request{r2}, 2, 2)
	sel2 := toktree.Prefix(spec2.Trees[0], 1)
	sep := e2.VerifyTrees([]VerifyItem{{Req: r2, Sel: sel2}}, nil).GPUTime
	sep += e2.Pass(nil, []PrefillItem{{Req: pre2, Chunk: 128}})
	if combined.GPUTime >= sep {
		t.Fatalf("co-batched pass %.2fms not cheaper than separate %.2fms",
			1e3*combined.GPUTime, 1e3*sep)
	}
}

func TestMixedPass(t *testing.T) {
	e := newEngine(t)
	dec := []*request.Request{decodingReq(1, 64, 50)}
	pre := request.New(2, request.Summarization, 0.15, 0, 300, 20, 9)
	pre.Phase = request.Prefilling

	lat := e.Pass(dec, []PrefillItem{{Req: pre, Chunk: 100}})
	want := newEngine(t).TargetCost().ForwardLatency(gpu.BatchShape{Tokens: 101, Seqs: 2, KVTokens: 65 + 100*101/2})
	if lat <= 0 || lat != want {
		t.Fatalf("mixed pass lat=%g, want one decode token plus the chunk: %g", lat, want)
	}
	if pre.PrefillDone != 100 {
		t.Fatal("mixed pass did not advance prefill")
	}
	// Empty mixed pass is free and leaves prefill progress alone.
	if lat2 := e.Pass(nil, nil); lat2 != 0 || pre.PrefillDone != 100 {
		t.Fatal("empty mixed pass should be free")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []lm.Token {
		e := newEngine(t)
		r := decodingReq(1, 64, 30)
		var out []lm.Token
		for r.Phase == request.Decoding {
			spec, err := e.SpeculateBeams([]*request.Request{r}, 3, 2)
			if err != nil {
				t.Fatal(err)
			}
			sel := toktree.Prefix(spec.Trees[0], spec.Trees[0].Size())
			ver := e.VerifyTrees([]VerifyItem{{Req: r, Sel: sel}}, nil)
			before := r.OutputLen()
			CommitVerify(r, ver.Results[0], 0)
			committed := append(append([]lm.Token(nil), ver.Results[0].Accepted...), ver.Results[0].Correction)
			out = append(out, committed[:r.OutputLen()-before]...)
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge at %d", i)
		}
	}
}

func TestBaselineLatencyExposed(t *testing.T) {
	e := newEngine(t)
	if e.TargetCost().BaselineLatency(512) <= 0 {
		t.Fatal("baseline latency should be positive")
	}
}

// TestPrefillChargesReloadStallOnce pins the host-tier reload economics: a
// pending KV reload stall is added to the request's first prefill pass and
// drained so later passes pay nothing; stall-free batches are bitwise
// unchanged.
func TestPrefillChargesReloadStallOnce(t *testing.T) {
	e := newEngine(t)
	clean := request.New(1, request.Chat, 0.05, 0, 64, 8, 7)
	clean.Phase = request.Prefilling
	base := e.Pass(nil, []PrefillItem{{Req: clean, Chunk: 32}})

	e2 := newEngine(t)
	stalled := request.New(2, request.Chat, 0.05, 0, 64, 8, 7)
	stalled.Phase = request.Prefilling
	stalled.ReloadStall = 0.025
	first := e2.Pass(nil, []PrefillItem{{Req: stalled, Chunk: 32}})
	if want := base + 0.025; first != want {
		t.Fatalf("first pass latency %g, want base %g + 0.025 stall", first, want)
	}
	if stalled.ReloadStall != 0 {
		t.Fatalf("stall %g not drained after the first pass", stalled.ReloadStall)
	}
	second := e2.Pass(nil, []PrefillItem{{Req: stalled, Chunk: 32}})
	clean2 := e.Pass(nil, []PrefillItem{{Req: clean, Chunk: 32}})
	if second != clean2 {
		t.Fatalf("second pass %g still carries the stall (clean %g)", second, clean2)
	}
}

// TestSpeculateVerifyAllocateNothingWarm pins the engine's pooling: once
// warm, a speculate-verify iteration over the same batch allocates
// nothing, since the trees, both results and their slices are reused.
func TestSpeculateVerifyAllocateNothingWarm(t *testing.T) {
	e := newEngine(t)
	reqs := make([]*request.Request, 6)
	for i := range reqs {
		reqs[i] = decodingReq(i+1, 64+8*i, 50)
	}
	items := make([]VerifyItem, len(reqs))
	step := func() {
		spec, err := e.SpeculateBeams(reqs, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, tr := range spec.Trees {
			items[i] = VerifyItem{Req: reqs[i], Sel: toktree.Prefix(tr, 1+i%tr.Size())}
		}
		e.VerifyTrees(items, nil)
	}
	step()
	if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
		t.Fatalf("a warm speculate-verify iteration allocates %v times", allocs)
	}
}
