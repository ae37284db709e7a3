package serve_test

import (
	"fmt"
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/engine"
	"adaserve/internal/gpu"
	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// vllmSystem builds one vLLM system for the driver tests: kvTokens of KV,
// at most batch running requests, the given admission mode, prefix caching
// when asked.
func vllmSystem(t *testing.T, seed uint64, kvTokens, batch int, mode sched.Mode, prefix bool) sched.System {
	t.Helper()
	target := lm.MustSyntheticLM(1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM(target, 0.88, 2)
	eng, err := engine.New(engine.Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	kv := kvcache.MustNew(kvcache.ConfigForTokens(kvTokens, 16))
	if prefix {
		if err := kv.EnablePrefix(kvcache.PrefixConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := sched.NewVLLM(sched.Config{
		Engine: eng, KV: kv, Mode: mode,
		MaxBatch: batch, MaxPrefillTokens: 2048, SchedOverhead: 30e-6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func testSystemKV(t *testing.T, seed uint64, kvTokens int) sched.System {
	return vllmSystem(t, seed, kvTokens, 32, sched.ModeMixed, false)
}

func testSystem(t *testing.T, seed uint64) sched.System {
	return testSystemKV(t, seed, 100000)
}

func mkReqs(n int, gap float64) []*request.Request {
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 64, 8, uint64(i)*13+1)
	}
	return reqs
}

// describe renders an event as a comparable log line.
func describe(ev serve.Event) string {
	switch e := ev.(type) {
	case serve.RequestAdmitted:
		return fmt.Sprintf("seq=%d t=%.9f admitted req=%d inst=%d", e.Seq, e.Time, e.Req.ID, e.Instance)
	case serve.FirstToken:
		return fmt.Sprintf("seq=%d t=%.9f first req=%d ttft=%.9f", e.Seq, e.Time, e.Req.ID, e.TTFT)
	case serve.TokensCommitted:
		return fmt.Sprintf("seq=%d t=%.9f tokens req=%d n=%d total=%d", e.Seq, e.Time, e.Req.ID, e.Tokens, e.Total)
	case serve.SLOViolated:
		return fmt.Sprintf("seq=%d t=%.9f violated req=%d kind=%s", e.Seq, e.Time, e.Req.ID, e.Kind)
	case serve.RequestFinished:
		return fmt.Sprintf("seq=%d t=%.9f finished req=%d attained=%v", e.Seq, e.Time, e.Req.ID, e.Attained)
	case serve.Snapshot:
		return fmt.Sprintf("seq=%d t=%.9f snapshot fin=%d att=%d final=%v", e.Seq, e.Time, e.Stats.Finished, e.Stats.Attained, e.Final)
	default:
		return fmt.Sprintf("unknown %T", ev)
	}
}

func runWithLog(t *testing.T, mk func() serve.Backend, reqs []*request.Request) []string {
	t.Helper()
	srv, err := serve.NewServer(mk(), serve.Options{SnapshotEvery: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) { log = append(log, describe(ev)) }))
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestEventDeliveryDeterministic replays the same seeded configuration
// twice — single system and a two-replica cluster — and requires the full
// event stream (types, stamps, sequence numbers) to be identical.
func TestEventDeliveryDeterministic(t *testing.T) {
	singles := func() serve.Backend { return serve.SingleSystem(testSystem(t, 3)) }
	clusters := func() serve.Backend {
		c, err := cluster.New([]sched.System{testSystem(t, 3), testSystem(t, 4)}, cluster.NewRoundRobin())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for name, mk := range map[string]func() serve.Backend{"single": singles, "cluster": clusters} {
		a := runWithLog(t, mk, mkReqs(20, 0.05))
		b := runWithLog(t, mk, mkReqs(20, 0.05))
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d events", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: event %d diverged:\n %s\n %s", name, i, a[i], b[i])
			}
		}
		if len(a) == 0 {
			t.Fatalf("%s: no events", name)
		}
	}
}

// TestObserverOrderAndSeq checks that every event reaches observers in
// registration order and that sequence numbers are dense and increasing.
func TestObserverOrderAndSeq(t *testing.T) {
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	lastSeq := -1
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		order = append(order, "A")
		if ev.EventSeq() != lastSeq+1 {
			t.Fatalf("seq %d after %d", ev.EventSeq(), lastSeq)
		}
		lastSeq = ev.EventSeq()
	}))
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) { order = append(order, "B") }))
	src, err := serve.NewTraceSource(mkReqs(5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Events == 0 || rr.Events != lastSeq+1 {
		t.Fatalf("events %d, last seq %d", rr.Events, lastSeq)
	}
	if len(order) != 2*rr.Events {
		t.Fatalf("%d observer calls for %d events", len(order), rr.Events)
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "A" || order[i+1] != "B" {
			t.Fatalf("delivery order broke at call %d: %v", i, order[i:i+2])
		}
	}
}

// TestEventStreamConsistency cross-checks the event stream against the
// requests' terminal state: every request admitted and finished exactly
// once, token events summing to each request's output, first-token stamps
// matching the requests' own TTFT accounting.
func TestEventStreamConsistency(t *testing.T) {
	reqs := mkReqs(15, 0.05)
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	admitted := map[int]int{}
	finished := map[int]int{}
	tokens := map[int]int{}
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.RequestAdmitted:
			admitted[e.Req.ID]++
			if e.Time != e.Req.ArrivalTime {
				t.Errorf("admitted stamp %.6f != arrival %.6f", e.Time, e.Req.ArrivalTime)
			}
		case serve.FirstToken:
			if e.TTFT != e.Req.TTFT() {
				t.Errorf("req %d first-token TTFT %.9f != request's %.9f", e.Req.ID, e.TTFT, e.Req.TTFT())
			}
		case serve.TokensCommitted:
			tokens[e.Req.ID] += e.Tokens
			if tokens[e.Req.ID] != e.Total {
				t.Errorf("req %d token events sum %d != reported total %d", e.Req.ID, tokens[e.Req.ID], e.Total)
			}
		case serve.RequestFinished:
			finished[e.Req.ID]++
			if e.Time != e.Req.DoneTime {
				t.Errorf("finished stamp %.6f != DoneTime %.6f", e.Time, e.Req.DoneTime)
			}
		}
	}))
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if admitted[r.ID] != 1 || finished[r.ID] != 1 {
			t.Fatalf("req %d admitted %d finished %d times", r.ID, admitted[r.ID], finished[r.ID])
		}
		if tokens[r.ID] != r.OutputLen() {
			t.Fatalf("req %d token events sum %d != output %d", r.ID, tokens[r.ID], r.OutputLen())
		}
	}
}

// TestSnapshotConvergence requires the final snapshot's cumulative rolling
// metrics to equal the terminal Summary computed over the same requests —
// bit-equal, since Rolling mirrors Summarize's arithmetic.
func TestSnapshotConvergence(t *testing.T) {
	reqs := mkReqs(25, 0.05)
	sys := testSystem(t, 3)
	srv, err := serve.NewServer(serve.SingleSystem(sys), serve.Options{SnapshotEvery: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	var final *serve.Snapshot
	snaps := 0
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		if s, ok := ev.(serve.Snapshot); ok {
			snaps++
			if s.Final {
				final = &s
			}
		}
	}))
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || snaps < 3 {
		t.Fatalf("final=%v after %d snapshots", final, snaps)
	}
	sum := metrics.Summarize(sys.Name(), reqs, rr.Breakdown)
	st := final.Stats
	if st.Finished != sum.Finished || st.Finished != sum.Requests {
		t.Fatalf("finished %d, summary %d/%d", st.Finished, sum.Finished, sum.Requests)
	}
	if st.Attainment() != sum.Attainment() {
		t.Fatalf("attainment %.9f != %.9f", st.Attainment(), sum.Attainment())
	}
	if st.Admitted != sum.Requests || st.Attained != sum.Attained {
		t.Fatalf("admitted/attained %d/%d != %d/%d", st.Admitted, st.Attained, sum.Requests, sum.Attained)
	}
	if st.Goodput != sum.Goodput {
		t.Fatalf("goodput %.9f != %.9f", st.Goodput, sum.Goodput)
	}
	if st.TPOTTail != sum.TPOTTail || st.TTFTTail != sum.TTFTTail {
		t.Fatalf("tails %+v/%+v != %+v/%+v", st.TPOTTail, st.TTFTTail, sum.TPOTTail, sum.TTFTTail)
	}
	if final.Time != rr.EndTime {
		t.Fatalf("final snapshot at %.6f, end %.6f", final.Time, rr.EndTime)
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Fatalf("occupancy at drain: %d queued %d running", st.Queued, st.Running)
	}
}

// TestViolationEvents gives requests impossible SLOs and expects exactly
// one certainty event per kind, ahead of the finish event.
func TestViolationEvents(t *testing.T) {
	reqs := mkReqs(3, 0.05)
	for _, r := range reqs {
		r.TPOTSLO = 1e-6 // unattainable: violation certain after one iteration
		r.TTFTSLO = 1e-6
	}
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[int]map[serve.ViolationKind]int{}
	finishedAfter := map[int]bool{}
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.SLOViolated:
			if finishedAfter[e.Req.ID] {
				t.Errorf("req %d violation after finish", e.Req.ID)
			}
			if kinds[e.Req.ID] == nil {
				kinds[e.Req.ID] = map[serve.ViolationKind]int{}
			}
			kinds[e.Req.ID][e.Kind]++
		case serve.RequestFinished:
			finishedAfter[e.Req.ID] = true
			if e.Attained || e.TTFTAttained {
				t.Errorf("req %d reported attained with impossible SLOs", e.Req.ID)
			}
		}
	}))
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		k := kinds[r.ID]
		if k[serve.ViolationTPOT] != 1 || k[serve.ViolationTTFT] != 1 {
			t.Fatalf("req %d violations %v, want one per kind", r.ID, k)
		}
	}
}

// TestSubmitSourceMidRun submits follow-up requests from an observer
// callback — the streaming usage no closed trace can express — and expects
// every generation to retire.
func TestSubmitSourceMidRun(t *testing.T) {
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src := serve.NewSubmitSource()
	// Out-of-order pre-run submission: must drain in arrival order.
	for _, r := range []*request.Request{
		request.New(1, request.Chat, 0.05, 0.4, 32, 4, 11),
		request.New(0, request.Chat, 0.05, 0.1, 32, 4, 7),
	} {
		if err := src.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	const maxID = 6
	var admittedOrder []int
	nextID := 2
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		switch e := ev.(type) {
		case serve.RequestAdmitted:
			admittedOrder = append(admittedOrder, e.Req.ID)
		case serve.RequestFinished:
			if nextID <= maxID {
				r := request.New(nextID, request.Chat, 0.05, e.Time+0.2, 32, 4, uint64(nextID)*3+1)
				nextID++
				if err := src.Submit(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}))
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	if len(admittedOrder) != maxID+1 {
		t.Fatalf("admitted %d requests, want %d", len(admittedOrder), maxID+1)
	}
	if admittedOrder[0] != 0 || admittedOrder[1] != 1 {
		t.Fatalf("pre-run submissions admitted as %v, want arrival order", admittedOrder[:2])
	}
	if at, ok := src.Peek(); ok {
		t.Fatalf("a submission arriving at %g was left pending", at)
	}
}

// TestOpenLoopMatchesEagerTrace drains a constant-rate OpenLoop source and
// expects the lazily generated stream to be identical to the eager
// PoissonTrace + FromTimestamps construction with the same seeds.
func TestOpenLoopMatchesEagerTrace(t *testing.T) {
	cfg := workload.GeneratorConfig{Seed: 5, Mix: workload.DefaultMix, BaselineLatency: 0.03}
	eagerGen := newGen(t, cfg)
	ts := workload.PoissonTrace(mathutil.NewRNG(9), 2.0, 30)
	eager := eagerGen.FromTimestamps(ts)

	lazyGen := newGen(t, cfg)
	ol, err := serve.NewOpenLoop(lazyGen, mathutil.NewRNG(9),
		func(float64) float64 { return 2.0 }, 2.0, 30)
	if err != nil {
		t.Fatal(err)
	}
	var lazy []*request.Request
	for {
		if _, ok := ol.Peek(); !ok {
			break
		}
		lazy = append(lazy, ol.Pop())
	}
	if len(lazy) == 0 || len(lazy) != len(eager) {
		t.Fatalf("lazy %d requests, eager %d", len(lazy), len(eager))
	}
	for i := range lazy {
		a, b := lazy[i], eager[i]
		if a.ID != b.ID || a.ArrivalTime != b.ArrivalTime || a.Category != b.Category ||
			a.PromptLen != b.PromptLen || a.MaxNewTokens != b.MaxNewTokens || a.Ctx != b.Ctx {
			t.Fatalf("request %d diverged: %+v vs %+v", i, a, b)
		}
	}
}

// TestOpenLoopEndToEnd drives an open-loop spike profile through the driver
// and expects a deterministic, fully retired run.
func TestOpenLoopEndToEnd(t *testing.T) {
	run := func() (int, float64) {
		cfg := workload.GeneratorConfig{Seed: 5, Mix: workload.DefaultMix, BaselineLatency: 0.03}
		rate, maxRate, err := workload.RateProfile("spike", 2.0, 20)
		if err != nil {
			t.Fatal(err)
		}
		ol, err := serve.NewOpenLoop(newGen(t, cfg), mathutil.NewRNG(11), rate, maxRate, 20)
		if err != nil {
			t.Fatal(err)
		}
		sys := testSystem(t, 3)
		srv, err := serve.NewServer(serve.SingleSystem(sys), serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rr, err := srv.Run(ol)
		if err != nil {
			t.Fatal(err)
		}
		done := sys.Pool().Done()
		if len(done) != ol.Generated() || len(done) == 0 {
			t.Fatalf("retired %d of %d generated", len(done), ol.Generated())
		}
		return len(done), rr.EndTime
	}
	n1, e1 := run()
	n2, e2 := run()
	if n1 != n2 || e1 != e2 {
		t.Fatalf("open-loop runs diverged: (%d,%g) vs (%d,%g)", n1, e1, n2, e2)
	}
}

// TestServerSingleUse rejects a second Run on the same Server.
func TestServerSingleUse(t *testing.T) {
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, _ := serve.NewTraceSource(mkReqs(2, 0.05))
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err == nil || !strings.Contains(err.Error(), "single-use") {
		t.Fatalf("second Run: %v", err)
	}
}

// TestNewServerValidates rejects broken backends and options.
func TestNewServerValidates(t *testing.T) {
	if _, err := serve.NewServer(nil, serve.Options{}); err == nil {
		t.Fatal("nil backend accepted")
	}
	if _, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{SnapshotEvery: -1}); err == nil {
		t.Fatal("negative snapshot interval accepted")
	}
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(nil); err == nil {
		t.Fatal("nil source accepted")
	}
}

// TestObserverFreeRunEmitsNothing keeps the hot path honest: without
// observers the driver derives no events.
func TestObserverFreeRunEmitsNothing(t *testing.T) {
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 3)), serve.Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	src, err := serve.NewTraceSource(mkReqs(5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Events != 0 {
		t.Fatalf("observer-free run emitted %d events", rr.Events)
	}
}
