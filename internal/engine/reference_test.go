package engine

import (
	"fmt"
	"reflect"
	"testing"

	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/toktree"
)

// The reference passes below are the engine's former entry points,
// DecodeBatch, Prefill, Mixed and VerifyTreesWithPrefill, kept verbatim
// apart from their statistics counters. Pass and VerifyTrees must price
// every batch bitwise as they did and leave the same request state.

func refDecodeBatch(e *Engine, reqs []*request.Request) float64 {
	if len(reqs) == 0 {
		return 0
	}
	kv := 0
	for _, r := range reqs {
		kv += r.ContextLen() + 1
	}
	return e.targetCost.ForwardLatency(gpu.BatchShape{
		Tokens: len(reqs), Seqs: len(reqs), KVTokens: kv,
	})
}

func refPrefill(e *Engine, items []PrefillItem) float64 {
	if len(items) == 0 {
		return 0
	}
	totalTokens := 0
	kvReads := 0
	for _, it := range items {
		if it.Chunk <= 0 {
			panic(fmt.Sprintf("engine: prefill chunk %d for request %d", it.Chunk, it.Req.ID))
		}
		if it.Chunk > it.Req.RemainingPrefill() {
			panic(fmt.Sprintf("engine: prefill chunk %d exceeds remaining %d for request %d",
				it.Chunk, it.Req.RemainingPrefill(), it.Req.ID))
		}
		prior := it.Req.PrefillDone
		c := it.Chunk
		totalTokens += c
		kvReads += c*prior + c*(c+1)/2
	}
	lat := e.targetCost.ForwardLatency(gpu.BatchShape{
		Tokens: totalTokens, Seqs: len(items), KVTokens: kvReads,
	}) + drainReloadStall(items)
	for _, it := range items {
		it.Req.PrefillDone += it.Chunk
		if it.Req.RemainingPrefill() == 0 {
			it.Req.Phase = request.Decoding
		}
	}
	return lat
}

func refMixed(e *Engine, decode []*request.Request, prefill []PrefillItem) float64 {
	totalTokens := len(decode)
	kv := 0
	for _, r := range decode {
		kv += r.ContextLen() + 1
	}
	for _, it := range prefill {
		prior := it.Req.PrefillDone
		c := it.Chunk
		totalTokens += c
		kv += c*prior + c*(c+1)/2
	}
	if totalTokens == 0 {
		return 0
	}
	lat := e.targetCost.ForwardLatency(gpu.BatchShape{
		Tokens: totalTokens, Seqs: len(decode) + len(prefill), KVTokens: kv,
	}) + drainReloadStall(prefill)
	for _, it := range prefill {
		it.Req.PrefillDone += it.Chunk
		if it.Req.RemainingPrefill() == 0 {
			it.Req.Phase = request.Decoding
		}
	}
	return lat
}

func refVerifyTreesWithPrefill(e *Engine, items []VerifyItem, prefill []PrefillItem) *VerifyBatchResult {
	res := &VerifyBatchResult{Results: make([]*toktree.VerifyResult, len(items))}
	if len(items) == 0 && len(prefill) == 0 {
		return res
	}
	if cap(e.vres) < len(items) {
		e.vres = make([]toktree.VerifyResult, len(items))
	}
	e.vres = e.vres[:len(items)]

	e.ids = e.ids[:0]
	for i := range items {
		e.ids = append(e.ids, items[i].Req.ID)
	}
	kv := 0
	for _, idx := range e.orderByKeys() {
		it := items[idx]
		vr := &e.vres[idx]
		toktree.VerifyInto(vr, it.Sel, e.verifier, &e.vscratch)
		res.Results[idx] = vr
		res.tokensVerified += vr.TokensVerified
		kv += it.Sel.Size() * (it.Req.ContextLen() + 1)
	}
	totalTokens := res.tokensVerified
	for _, it := range prefill {
		prior := it.Req.PrefillDone
		c := it.Chunk
		totalTokens += c
		kv += c*prior + c*(c+1)/2
	}
	res.GPUTime = e.targetCost.ForwardLatency(gpu.BatchShape{
		Tokens: totalTokens, Seqs: len(items) + len(prefill), KVTokens: kv,
	}) + drainReloadStall(prefill)
	for _, it := range prefill {
		it.Req.PrefillDone += it.Chunk
		if it.Req.RemainingPrefill() == 0 {
			it.Req.Phase = request.Decoding
		}
	}
	return res
}

// batchGen draws random batches; two generators with the same seed draw
// equal but separate request sets, one per engine under comparison.
type batchGen struct {
	rng *mathutil.RNG
	id  int
}

func (g *batchGen) decode(n int) []*request.Request {
	out := make([]*request.Request, n)
	for i := range out {
		g.id++
		r := decodingReq(g.id, 1+g.rng.Intn(3000), 1+g.rng.Intn(400))
		r.CommitCount(g.rng.Intn(r.MaxNewTokens), 0)
		out[i] = r
	}
	return out
}

// prefill draws n prefilling requests part-way through their prompts, each
// with a chunk that fits; about one in three carries a pending reload stall.
func (g *batchGen) prefill(n int) []PrefillItem {
	out := make([]PrefillItem, n)
	for i := range out {
		g.id++
		prompt := 2 + g.rng.Intn(4000)
		r := request.New(g.id, request.Chat, 0.05, 0, prompt, 16, uint64(g.id))
		r.Phase = request.Prefilling
		r.PrefillDone = g.rng.Intn(prompt)
		if g.rng.Intn(3) == 0 {
			r.ReloadStall = 1e-3 * float64(1+g.rng.Intn(40))
		}
		out[i] = PrefillItem{Req: r, Chunk: 1 + g.rng.Intn(r.RemainingPrefill())}
	}
	return out
}

// prefillState is what a pass may change on a prefilling request.
type prefillState struct {
	done  int
	phase request.Phase
	stall float64
}

func prefillStates(items []PrefillItem) []prefillState {
	out := make([]prefillState, len(items))
	for i, it := range items {
		out[i] = prefillState{it.Req.PrefillDone, it.Req.Phase, it.Req.ReloadStall}
	}
	return out
}

// TestPassMatchesReference drives a reference engine and the engine under
// test through the same seeded sequence of decode-only, prefill-only and
// mixed batches (graph captures included) and requires equal latencies and
// prefill state after every pass.
func TestPassMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		ref, got := newEngine(t), newEngine(t)
		shape := mathutil.NewRNG(seed + 1000)
		ga := &batchGen{rng: mathutil.NewRNG(seed)}
		gb := &batchGen{rng: mathutil.NewRNG(seed)}
		for i := 0; i < 300; i++ {
			kind := i % 3
			var nd, np int
			switch kind {
			case 0:
				nd = shape.Intn(24)
			case 1:
				np = shape.Intn(6)
			default:
				nd, np = shape.Intn(24), shape.Intn(6)
			}
			da, pa := ga.decode(nd), ga.prefill(np)
			db, pb := gb.decode(nd), gb.prefill(np)
			var want float64
			switch kind {
			case 0:
				want = refDecodeBatch(ref, da)
			case 1:
				want = refPrefill(ref, pa)
			default:
				want = refMixed(ref, da, pa)
			}
			if lat := got.Pass(db, pb); lat != want {
				t.Fatalf("seed %d pass %d (%d decode, %d prefill): Pass %v, reference %v", seed, i, nd, np, lat, want)
			}
			if a, b := prefillStates(pa), prefillStates(pb); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d pass %d: prefill state %+v, reference %+v", seed, i, b, a)
			}
		}
	}
}

// TestVerifyTreesMatchesReference does the same for verification passes
// with co-batched prefill chunks, also comparing every verification result
// (so the RNG is consumed identically).
func TestVerifyTreesMatchesReference(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		ref, got := newEngine(t), newEngine(t)
		shape := mathutil.NewRNG(seed + 1000)
		ga := &batchGen{rng: mathutil.NewRNG(seed)}
		gb := &batchGen{rng: mathutil.NewRNG(seed)}
		for i := 0; i < 60; i++ {
			nd, np := shape.Intn(8), shape.Intn(4)
			da, pa := ga.decode(nd), ga.prefill(np)
			db, pb := gb.decode(nd), gb.prefill(np)
			ia, ib := specItems(t, ref, da), specItems(t, got, db)
			want := refVerifyTreesWithPrefill(ref, ia, pa)
			res := got.VerifyTrees(ib, pb)
			if res.GPUTime != want.GPUTime || res.tokensVerified != want.tokensVerified {
				t.Fatalf("seed %d pass %d: VerifyTrees %v s/%d tokens, reference %v s/%d tokens",
					seed, i, res.GPUTime, res.tokensVerified, want.GPUTime, want.tokensVerified)
			}
			for j := range res.Results {
				if !reflect.DeepEqual(*res.Results[j], *want.Results[j]) {
					t.Fatalf("seed %d pass %d item %d: result %+v, reference %+v", seed, i, j, *res.Results[j], *want.Results[j])
				}
			}
			if a, b := prefillStates(pa), prefillStates(pb); !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d pass %d: prefill state %+v, reference %+v", seed, i, b, a)
			}
		}
	}
}

// specItems speculates a small tree per request and selects all of it.
func specItems(t *testing.T, e *Engine, reqs []*request.Request) []VerifyItem {
	t.Helper()
	spec, err := e.SpeculateBeams(reqs, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]VerifyItem, len(reqs))
	for i, tr := range spec.Trees {
		sel := toktree.Prefix(tr, tr.Size())
		items[i] = VerifyItem{Req: reqs[i], Sel: sel}
	}
	return items
}

// TestBadChunkPanicsEverywhere pins chunk validation on every entry point:
// a zero chunk and one longer than the remaining prompt panic, with or
// without decode requests or trees in the same pass.
func TestBadChunkPanicsEverywhere(t *testing.T) {
	e := newEngine(t)
	entries := map[string]func(PrefillItem){
		"prefill-only pass": func(it PrefillItem) { e.Pass(nil, []PrefillItem{it}) },
		"mixed pass": func(it PrefillItem) {
			e.Pass([]*request.Request{decodingReq(1, 64, 10)}, []PrefillItem{it})
		},
		"verify with prefill only": func(it PrefillItem) { e.VerifyTrees(nil, []PrefillItem{it}) },
		"verify with trees": func(it PrefillItem) {
			r := decodingReq(2, 64, 10)
			e.VerifyTrees(specItems(t, e, []*request.Request{r}), []PrefillItem{it})
		},
	}
	for name, run := range entries {
		for _, chunk := range []int{0, -1, 101} {
			r := request.New(9, request.Chat, 0.05, 0, 100, 10, 7)
			r.Phase = request.Prefilling
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: chunk %d of a 100-token prompt did not panic", name, chunk)
					}
				}()
				run(PrefillItem{Req: r, Chunk: chunk})
			}()
			if r.PrefillDone != 0 {
				t.Errorf("%s: rejected chunk %d advanced prefill to %d", name, chunk, r.PrefillDone)
			}
		}
	}
}
