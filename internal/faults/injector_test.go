package faults

import (
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// fakeSystem is a minimal sched.System for injector tests (the same idiom as
// the cluster package's driver-test fake): it admits every waiting request,
// finishes prefill in one iteration, and commits one token per running
// request per iteration. prefillOnly systems never commit output tokens, so
// they model a disaggregated prefill replica.
type fakeSystem struct {
	name        string
	pool        *request.Pool
	prefillOnly bool
}

func newFake(name string, prefillOnly bool) *fakeSystem {
	return &fakeSystem{name: name, pool: request.NewPool(), prefillOnly: prefillOnly}
}

func (f *fakeSystem) Name() string             { return f.name }
func (f *fakeSystem) Pool() *request.Pool      { return f.pool }
func (f *fakeSystem) Release(*request.Request) {}

func (f *fakeSystem) Iterate(now float64) sched.IterationStats {
	for _, r := range append([]*request.Request(nil), f.pool.Waiting()...) {
		f.pool.Admit(r, now)
	}
	running := f.pool.Running()
	work := false
	for _, r := range running {
		if !f.prefillOnly || r.Phase == request.Prefilling {
			work = true
		}
	}
	if !work {
		return sched.IterationStats{Idle: true}
	}
	elapsed := 0.010 + 0.001*float64(len(running))
	end := now + elapsed
	committed := 0
	for _, r := range running {
		if r.Phase == request.Prefilling {
			r.PrefillDone = r.PromptLen
			r.Phase = request.Decoding
		}
		if f.prefillOnly {
			continue
		}
		if r.FirstDecodeTime < 0 {
			r.FirstDecodeTime = now
		}
		committed += r.Commit([]lm.Token{lm.Token(r.ID)}, end)
	}
	f.pool.Finish()
	return sched.IterationStats{Elapsed: elapsed, VerifyTime: elapsed, TokensCommitted: committed}
}

func staticFakes(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	systems := make([]sched.System, n)
	for i := range systems {
		systems[i] = newFake("fake", false)
	}
	cl, err := cluster.New(systems, cluster.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// disaggFakes builds a static fleet of prefill-only then decode replicas.
func disaggFakes(t *testing.T, prefill, decode int) *cluster.Cluster {
	t.Helper()
	var systems []sched.System
	var roles []cluster.Role
	for i := 0; i < prefill+decode; i++ {
		role := cluster.RoleDecode
		if i < prefill {
			role = cluster.RolePrefill
		}
		systems = append(systems, newFake("fake", role == cluster.RolePrefill))
		roles = append(roles, role)
	}
	transfer := gpu.KVTransfer{Model: gpu.Llama1B,
		Link: gpu.Interconnect{Name: "test", Bandwidth: 1e15, Latency: 1e-4}}
	cl, err := cluster.NewWithRoles(systems, roles, cluster.NewRoundRobin(), transfer)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mkReqs(n int, gap float64, output int, ttft float64) []*request.Request {
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 16, output, uint64(i)*7+1)
		reqs[i].TTFTSLO = ttft
	}
	return reqs
}

// runFaulted drives a faulted run end to end and returns everything the
// assertions need.
func runFaulted(t *testing.T, cl *cluster.Cluster, spec string, opts Options, reqs []*request.Request) (*Injector, *serve.Result, []serve.Event) {
	t.Helper()
	sp, err := ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(cl, sp, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(cl, serve.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var events []serve.Event
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) { events = append(events, ev) }))
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return inj, rr, events
}

func countEvents(events []serve.Event) map[string]int {
	n := map[string]int{}
	for _, ev := range events {
		switch ev.(type) {
		case serve.ReplicaFailed:
			n["failed"]++
		case serve.ReplicaRecovered:
			n["recovered"]++
		case serve.RequestRetried:
			n["retried"]++
		case serve.RequestHedged:
			n["hedged"]++
		}
	}
	return n
}

func TestCrashWithoutRecoveryLosesRequests(t *testing.T) {
	reqs := mkReqs(16, 0.01, 6, 0)
	inj, rr, events := runFaulted(t, staticFakes(t, 2), "crash@0.06:r0",
		Options{Seed: 7, Recovery: RecoveryNone}, reqs)

	lost := 0
	for _, r := range reqs {
		if r.Phase != request.Done {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no requests lost despite an unrepaired crash with no recovery")
	}
	sum := inj.Summary(rr.EndTime)
	if sum.Crashes != 1 || sum.Repairs != 0 || sum.LostRequests != lost || sum.Retried != 0 {
		t.Fatalf("fault summary %+v, want 1 crash and %d lost", sum, lost)
	}
	if sum.Recovery != "none" || sum.Spec != "crash@0.06:r0" {
		t.Fatalf("summary identity wrong: %+v", sum)
	}
	if sum.UnavailableReplicaSeconds < rr.EndTime-0.06-1e-9 {
		t.Fatalf("unavailability %g, want at least end-crash = %g", sum.UnavailableReplicaSeconds, rr.EndTime-0.06)
	}
	if n := countEvents(events); n["failed"] != 1 || n["recovered"] != 0 || n["retried"] != 0 {
		t.Fatalf("event counts %v", n)
	}
}

func TestCrashWithRetryRecoversEveryRequest(t *testing.T) {
	reqs := mkReqs(16, 0.01, 6, 0)
	inj, rr, events := runFaulted(t, staticFakes(t, 2), "crash@0.06+0.8:r0",
		Options{Seed: 7, Recovery: RecoveryRetry}, reqs)

	retried := 0
	for _, r := range reqs {
		if r.Phase != request.Done {
			t.Fatalf("request %d not recovered: phase %s", r.ID, r.Phase)
		}
		if r.Retries > 0 {
			retried++
			if r.OutputLen() != 6 {
				t.Fatalf("retried request %d finished with %d tokens", r.ID, r.OutputLen())
			}
		}
	}
	if retried == 0 {
		t.Fatal("crash lost nothing — the scenario tests no recovery path")
	}
	sum := inj.Summary(rr.EndTime)
	if sum.Crashes != 1 || sum.Repairs != 1 || sum.Retried != retried || sum.Dropped != 0 {
		t.Fatalf("fault summary %+v, want 1 repaired crash and %d retried", sum, retried)
	}
	if sum.MTTR < 0.8-1e-9 || sum.MTTR > 0.8+1e-9 {
		t.Fatalf("MTTR %g, want 0.8", sum.MTTR)
	}
	if sum.UnavailableReplicaSeconds < 0.8-1e-9 || sum.UnavailableReplicaSeconds > 0.8+1e-9 {
		t.Fatalf("unavailability %g, want the repair window 0.8", sum.UnavailableReplicaSeconds)
	}
	n := countEvents(events)
	if n["failed"] != 1 || n["recovered"] != 1 || n["retried"] != retried {
		t.Fatalf("event counts %v, want 1 failed / 1 recovered / %d retried", n, retried)
	}
	// Detection is timeout-based: the retry events stamp after crash+detect.
	for _, ev := range events {
		if e, ok := ev.(serve.RequestRetried); ok && e.When() < 0.06+detectDelay+backoff {
			t.Fatalf("retry at %g, before detection plus backoff at %g", e.When(), 0.06+detectDelay+backoff)
		}
	}
}

func TestRetryBudgetDropsRequests(t *testing.T) {
	// A single replica that crashes and never repairs: retries have nowhere
	// to land, burn their budget against the outage and drop.
	reqs := mkReqs(4, 0.005, 6, 0)
	inj, rr, _ := runFaulted(t, staticFakes(t, 1), "crash@0.03:r0",
		Options{Seed: 7, Recovery: RecoveryRetry}, reqs)
	sum := inj.Summary(rr.EndTime)
	if sum.LostRequests == 0 || sum.Dropped != sum.LostRequests {
		t.Fatalf("fault summary %+v, want every lost request dropped", sum)
	}
	for _, r := range reqs {
		if r.Phase == request.Done && r.ArrivalTime >= 0.03 {
			t.Fatalf("request %d finished on a dead cluster", r.ID)
		}
	}
}

func TestStragglerHedgingCutsWorstCaseTTFT(t *testing.T) {
	run := func(rec Recovery) (*Injector, *serve.Result, []serve.Event, []*request.Request, float64) {
		reqs := mkReqs(10, 0.01, 6, 0.1)
		inj, rr, events := runFaulted(t, staticFakes(t, 2), "slow@0.005+2:r0:x100",
			Options{Seed: 7, Recovery: rec}, reqs)
		maxTTFT := 0.0
		for _, r := range reqs {
			if ttft := r.TTFT(); ttft > maxTTFT {
				maxTTFT = ttft
			}
		}
		return inj, rr, events, reqs, maxTTFT
	}

	_, _, _, baseReqs, baseMax := run(RecoveryNone)
	for _, r := range baseReqs {
		if r.Phase != request.Done {
			t.Fatalf("straggler baseline lost request %d (stragglers lose nothing)", r.ID)
		}
	}
	inj, rr, events, hedgeReqs, hedgeMax := run(RecoveryRetryHedge)
	for _, r := range hedgeReqs {
		if r.Phase != request.Done {
			t.Fatalf("hedged run lost request %d", r.ID)
		}
	}
	sum := inj.Summary(rr.EndTime)
	if sum.Stragglers != 1 || sum.Crashes != 0 {
		t.Fatalf("fault summary %+v, want exactly the straggler window", sum)
	}
	if sum.Hedged == 0 || sum.DuplicateCancelled != sum.Hedged {
		t.Fatalf("fault summary %+v, want every hedge race resolved", sum)
	}
	if n := countEvents(events); n["hedged"] != sum.Hedged {
		t.Fatalf("event counts %v vs summary %d hedges", n, sum.Hedged)
	}
	if hedgeMax >= baseMax {
		t.Fatalf("hedging did not cut worst-case TTFT: %g vs baseline %g", hedgeMax, baseMax)
	}
}

func TestLinkFaultFallsBackToRecompute(t *testing.T) {
	reqs := mkReqs(6, 0.01, 4, 0)
	inj, rr, _ := runFaulted(t, disaggFakes(t, 1, 1), "link@0+10:p1:x3",
		Options{Seed: 7, Recovery: RecoveryNone}, reqs)
	for _, r := range reqs {
		if r.Phase != request.Done || r.OutputLen() != 4 {
			t.Fatalf("request %d phase %s len %d", r.ID, r.Phase, r.OutputLen())
		}
		if !r.Recompute {
			t.Fatalf("request %d finished without the recompute fallback", r.ID)
		}
	}
	sum := inj.Summary(rr.EndTime)
	if sum.TransferFallbacks != 6 || sum.TransferDegraded != 6 || sum.LinkWindows != 1 {
		t.Fatalf("fault summary %+v, want 6 fallbacks over 1 window", sum)
	}
}

func TestFaultedRunDeterminism(t *testing.T) {
	run := func() (*serve.Result, []int, []float64) {
		reqs := mkReqs(16, 0.01, 6, 0.1)
		_, rr, _ := runFaulted(t, staticFakes(t, 3), "crash@0.05+0.5; slow@0.02+0.3:x5",
			Options{Seed: 11, Recovery: RecoveryRetryHedge}, reqs)
		retries := make([]int, len(reqs))
		done := make([]float64, len(reqs))
		for i, r := range reqs {
			retries[i] = r.Retries
			done[i] = r.DoneTime
		}
		return rr, retries, done
	}
	r1, ret1, done1 := run()
	r2, ret2, done2 := run()
	if r1.EndTime != r2.EndTime || r1.Iterations != r2.Iterations || r1.Events != r2.Events {
		t.Fatalf("faulted runs diverged: (%g,%d,%d) vs (%g,%d,%d)",
			r1.EndTime, r1.Iterations, r1.Events, r2.EndTime, r2.Iterations, r2.Events)
	}
	if !reflect.DeepEqual(ret1, ret2) || !reflect.DeepEqual(done1, done2) {
		t.Fatal("per-request fault outcomes diverged between identical runs")
	}
}

func TestInjectorOptionValidation(t *testing.T) {
	cl := staticFakes(t, 2)
	if _, err := New(nil, Spec{}, Options{}); err == nil {
		t.Error("accepted nil cluster")
	}
	// A hazard spec needs a horizon.
	sp, _ := ParseSpec("hazard@0.1+1")
	if _, err := New(cl, sp, Options{}); err == nil {
		t.Error("accepted hazard without horizon")
	}
	if _, err := New(cl, Spec{}, Options{Horizon: 10}); err != nil {
		t.Errorf("rejected valid options: %v", err)
	}
	// Link faults act on prefill-to-decode handoffs: a colocated fleet has
	// none, so the schedule is rejected rather than silently doing nothing;
	// a 2P2D fleet installs the window.
	link, _ := ParseSpec("link@1+2:p0.5")
	if _, err := New(staticFakes(t, 2), link, Options{}); err == nil || !strings.Contains(err.Error(), "link") {
		t.Errorf("colocated fleet with link faults: err = %v, want a link-fault error", err)
	}
	inj, err := New(disaggFakes(t, 2, 2), link, Options{})
	if err != nil {
		t.Fatalf("2P2D fleet rejected link faults: %v", err)
	}
	if got := inj.Summary(0).LinkWindows; got != 1 {
		t.Errorf("2P2D fleet installed %d link windows, want 1", got)
	}
}
