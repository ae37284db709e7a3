package cluster

import (
	"strings"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// fakeSystem is a minimal sched.System for driver tests: it admits every
// waiting request, finishes prefill in one iteration, and commits one token
// per running request per iteration at a fixed per-iteration cost plus a
// small per-sequence cost (so load affects latency, as on a real replica).
type fakeSystem struct {
	name string
	pool *request.Pool
}

func newFake(name string) *fakeSystem {
	return &fakeSystem{name: name, pool: request.NewPool()}
}

func (f *fakeSystem) Name() string             { return f.name }
func (f *fakeSystem) Pool() *request.Pool      { return f.pool }
func (f *fakeSystem) Release(*request.Request) {}

func (f *fakeSystem) Iterate(now float64) sched.IterationStats {
	for _, r := range append([]*request.Request(nil), f.pool.Waiting()...) {
		f.pool.Admit(r, now)
	}
	running := f.pool.Running()
	if len(running) == 0 {
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
		if r.FirstDecodeTime < 0 {
			r.FirstDecodeTime = now
		}
		committed += r.Commit([]lm.Token{lm.Token(r.ID)}, end)
	}
	f.pool.Finish()
	return sched.IterationStats{
		Elapsed:         elapsed,
		VerifyTime:      elapsed,
		TokensCommitted: committed,
	}
}

func fakeCluster(t *testing.T, n int, router Router) *Cluster {
	t.Helper()
	if router == nil {
		router = NewRoundRobin() // placeholder for tests that call Route directly
	}
	systems := make([]sched.System, n)
	for i := range systems {
		systems[i] = newFake("fake")
	}
	c, err := New(systems, router)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mkReqs(n int, gap float64, output int) []*request.Request {
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 16, output, uint64(i)*7+1)
	}
	return reqs
}

func TestRunRoutesEveryRequestOnce(t *testing.T) {
	c := fakeCluster(t, 3, NewRoundRobin())
	reqs := mkReqs(30, 0.01, 4)
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rep := range c.Replicas() {
		if len(rep.routed) != 10 {
			t.Errorf("replica %d got %d requests, want 10 under round-robin", rep.ID(), len(rep.routed))
		}
		total += len(rep.routed)
	}
	if total != 30 {
		t.Fatalf("routed %d of 30", total)
	}
	for _, r := range reqs {
		if r.Phase != request.Done {
			t.Fatalf("request %d phase %s", r.ID, r.Phase)
		}
	}
	if res.Summary.Aggregate.Finished != 30 {
		t.Fatalf("aggregate finished %d", res.Summary.Aggregate.Finished)
	}
	perReplica := 0
	for _, rr := range res.PerReplica {
		perReplica += rr.Summary.Requests
	}
	if perReplica != 30 {
		t.Fatalf("per-replica summaries cover %d of 30", perReplica)
	}
}

func TestRunPerReplicaClocksAdvanceIndependently(t *testing.T) {
	// Every request goes to replica 0: replica 1 must stay at clock 0.
	c := fakeCluster(t, 2, routeTo(0))
	reqs := mkReqs(5, 0.001, 8)
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas()
	if reps[0].Clock() <= 0 {
		t.Fatalf("replica 0 clock %.3f", reps[0].Clock())
	}
	if reps[1].Clock() != 0 || len(reps[1].routed) != 0 {
		t.Fatalf("idle replica advanced: clock %.3f, routed %d", reps[1].Clock(), len(reps[1].routed))
	}
	if res.EndTime != reps[0].Clock() {
		t.Fatalf("end time %.3f != busy replica clock %.3f", res.EndTime, reps[0].Clock())
	}
	if res.PerReplica[1].Iterations != 0 {
		t.Fatalf("idle replica iterated %d times", res.PerReplica[1].Iterations)
	}
}

// routeTo is a test router that sends everything to one replica.
type routeTo int

func (routeTo) Name() string                                    { return "route-to" }
func (rt routeTo) Route(*request.Request, []*Replica) int       { return int(rt) }
func (rt routeTo) RouteDecode(*request.Request, []*Replica) int { return int(rt) }

func TestRunHandlesArrivalGaps(t *testing.T) {
	c := fakeCluster(t, 2, LeastLoaded{})
	reqs := mkReqs(4, 50, 4) // arrivals far apart: clocks must jump
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime < 150 {
		t.Fatalf("clock did not advance across gaps: end %.1f", res.EndTime)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (float64, int, []int) {
		c := fakeCluster(t, 4, &sloAware{})
		reqs := mkReqs(40, 0.007, 6)
		res, err := replayTrace(c, reqs)
		if err != nil {
			t.Fatal(err)
		}
		var routed []int
		for _, rep := range c.Replicas() {
			routed = append(routed, len(rep.routed))
		}
		return res.EndTime, res.Iterations, routed
	}
	e1, i1, r1 := run()
	e2, i2, r2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("runs diverged: (%g,%d) vs (%g,%d)", e1, i1, e2, i2)
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("routing diverged on replica %d: %d vs %d", i, r1[i], r2[i])
		}
	}
}

func TestRunRejectsBadRouterPick(t *testing.T) {
	c := fakeCluster(t, 2, routeTo(5))
	_, err := replayTrace(c, mkReqs(1, 0, 2))
	if err == nil || !strings.Contains(err.Error(), "picked replica") {
		t.Fatalf("want router range error, got %v", err)
	}
}

func TestRunValidatesRequests(t *testing.T) {
	c := fakeCluster(t, 2, NewRoundRobin())
	bad := request.New(1, request.Chat, 0, 0, 16, 4, 1)
	if _, err := replayTrace(c, []*request.Request{bad}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

// replayTrace replays reqs through c until every request is done: a
// serve.Server over a TraceSource, summarized over the trace.
func replayTrace(c *Cluster, reqs []*request.Request) (*Result, error) {
	src, err := serve.NewTraceSource(reqs)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(c, serve.Options{})
	if err != nil {
		return nil, err
	}
	rr, err := srv.Run(src)
	if err != nil {
		return nil, err
	}
	return c.Results(rr, reqs), nil
}

// spinSystem is a sched.System that admits every request and never finishes
// one, at a negligible per-iteration cost: a run over it can only end at a
// run bound.
type spinSystem struct{ pool *request.Pool }

func (s *spinSystem) Name() string             { return "spin" }
func (s *spinSystem) Pool() *request.Pool      { return s.pool }
func (s *spinSystem) Release(*request.Request) {}

func (s *spinSystem) Iterate(now float64) sched.IterationStats {
	for len(s.pool.Waiting()) > 0 {
		s.pool.Admit(s.pool.Waiting()[0], now)
	}
	if len(s.pool.Running()) == 0 {
		return sched.IterationStats{Idle: true}
	}
	return sched.IterationStats{Elapsed: 1e-12}
}

// TestRunRespectsMaxIterations: the shared iteration bound counts
// iterations summed across replicas. Two replicas that never finish stop
// together at the bound, each well below it alone.
func TestRunRespectsMaxIterations(t *testing.T) {
	c, err := New([]sched.System{
		&spinSystem{pool: request.NewPool()},
		&spinSystem{pool: request.NewPool()},
	}, NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	_, err = replayTrace(c, mkReqs(2, 0, 4))
	if err == nil || !strings.Contains(err.Error(), "max iterations") {
		t.Fatalf("want max-iterations error, got %v", err)
	}
	// The bound is 50 million; the run stops on the first iteration past it.
	a, b := c.Replicas()[0].inst.Iterations(), c.Replicas()[1].inst.Iterations()
	if a >= 50_000_000 || b >= 50_000_000 || a+b != 50_000_001 {
		t.Fatalf("replica iterations %d + %d, want 50,000,001 in total", a, b)
	}
}

// TestRunRespectsMaxSimTime: a run whose arrivals outlast the shared
// simulated-time bound (24 h) fails with a one-line error.
func TestRunRespectsMaxSimTime(t *testing.T) {
	c := fakeCluster(t, 2, NewRoundRobin())
	reqs := mkReqs(4, 40_000, 4) // arrivals span 120,000 s
	_, err := replayTrace(c, reqs)
	if err == nil || !strings.Contains(err.Error(), "max simulated time") {
		t.Fatalf("want max-sim-time error, got %v", err)
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(nil, NewRoundRobin()); err == nil {
		t.Fatal("empty cluster accepted")
	}
	if _, err := New([]sched.System{newFake("f")}, nil); err == nil {
		t.Fatal("nil router accepted")
	}
	if _, err := New([]sched.System{nil}, NewRoundRobin()); err == nil {
		t.Fatal("nil replica accepted")
	}
}

func TestQueuedTokensCountsOutstandingWork(t *testing.T) {
	c := fakeCluster(t, 1, NewRoundRobin())
	rep := c.Replicas()[0]
	if rep.QueuedTokens() != 0 {
		t.Fatalf("empty replica has %d queued tokens", rep.QueuedTokens())
	}
	r := request.New(1, request.Chat, 0.05, 0, 100, 20, 1)
	rep.System().Pool().Enqueue(r)
	if got := rep.QueuedTokens(); got != 120 {
		t.Fatalf("queued tokens %d, want 120 (prompt 100 + output 20)", got)
	}
	tight, relaxed := rep.activeRequests(0.1)
	if tight != 1 || relaxed != 0 {
		t.Fatalf("active requests (%d,%d), want (1,0)", tight, relaxed)
	}
	tight, relaxed = rep.activeRequests(0.01)
	if tight != 0 || relaxed != 1 {
		t.Fatalf("active requests (%d,%d) with cutoff below SLO, want (0,1)", tight, relaxed)
	}
}
