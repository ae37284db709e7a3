package serve

import (
	"strings"
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/sched"
)

// TestSharedRunBoundDefaults pins the run bounds every server runs under
// and the options' zero-value defaults.
func TestSharedRunBoundDefaults(t *testing.T) {
	srv, err := NewServer(newRoundRobin(1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if srv.maxSimTime != 24*3600.0 || srv.maxIterations != 50_000_000 {
		t.Fatalf("run bounds %g s / %d iterations, want 24 h / 50M", srv.maxSimTime, srv.maxIterations)
	}
	if srv.opts.Window != DefaultSnapshotWindow {
		t.Fatalf("Window default %g", srv.opts.Window)
	}
	// An explicit window survives fill.
	o := Options{Window: 3}
	o.fill()
	if o.Window != 3 {
		t.Fatalf("fill clobbered explicit options: %+v", o)
	}
}

// stepSystem is a minimal sched.System: every iteration admits all waiting
// requests, finishes their prefill and commits one token to each running
// one, taking 10 ms plus 1 ms per running request.
type stepSystem struct{ pool *request.Pool }

func (s *stepSystem) Name() string             { return "step" }
func (s *stepSystem) Pool() *request.Pool      { return s.pool }
func (s *stepSystem) Release(*request.Request) {}

func (s *stepSystem) Iterate(now float64) sched.IterationStats {
	for _, r := range append([]*request.Request(nil), s.pool.Waiting()...) {
		s.pool.Admit(r, now)
	}
	running := s.pool.Running()
	if len(running) == 0 {
		return sched.IterationStats{Idle: true}
	}
	elapsed := 0.010 + 0.001*float64(len(running))
	committed := 0
	for _, r := range running {
		r.PrefillDone = r.PromptLen
		r.Phase = request.Decoding
		if r.FirstDecodeTime < 0 {
			r.FirstDecodeTime = now
		}
		committed += r.CommitCount(1, now+elapsed)
	}
	s.pool.Finish()
	return sched.IterationStats{Elapsed: elapsed, VerifyTime: elapsed, TokensCommitted: committed}
}

// roundRobin is a backend of n step systems that places arrivals in turn.
type roundRobin struct {
	insts []*Instance
	next  int
}

func newRoundRobin(n int) *roundRobin {
	b := &roundRobin{}
	for i := 0; i < n; i++ {
		b.insts = append(b.insts, NewInstance(i, &stepSystem{pool: request.NewPool()}))
	}
	return b
}

func (b *roundRobin) Instances() []*Instance { return b.insts }

func (b *roundRobin) Dispatch(r *request.Request) (*Instance, error) {
	in := b.insts[b.next%len(b.insts)]
	b.next++
	in.BumpClock(r.ArrivalTime)
	in.sys.Pool().Enqueue(r)
	return in, nil
}

func (b *roundRobin) AfterIterate(*Instance, *Queue) error { return nil }

// runBounded serves n requests spaced gap seconds apart, each asking for
// out tokens, on a fresh round-robin backend of the given size under the
// given run bounds (0 keeps the shared default).
func runBounded(t *testing.T, instances, n int, gap float64, out int, maxSimTime float64, maxIterations int) (*Result, error) {
	t.Helper()
	srv, err := NewServer(newRoundRobin(instances), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if maxSimTime > 0 {
		srv.maxSimTime = maxSimTime
	}
	if maxIterations > 0 {
		srv.maxIterations = maxIterations
	}
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 16, out, uint64(i)*7+1)
	}
	src, err := NewTraceSource(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return srv.Run(src)
}

// TestRunRespectsMaxSimTime: a run whose arrivals outlast the simulated-time
// bound fails with a one-line error, on one instance and on two.
func TestRunRespectsMaxSimTime(t *testing.T) {
	for _, instances := range []int{1, 2} {
		// Arrivals span 300 s.
		_, err := runBounded(t, instances, 4, 100, 4, 10, 0)
		if err == nil || !strings.Contains(err.Error(), "max simulated time") {
			t.Fatalf("%d instances: want max-sim-time error, got %v", instances, err)
		}
	}
}

// TestRunRespectsMaxIterations: the iteration bound fails a run with a
// one-line error, and it counts iterations summed across instances: a bound
// each instance stays within alone still stops the two together.
func TestRunRespectsMaxIterations(t *testing.T) {
	_, err := runBounded(t, 1, 5, 0.05, 8, 0, 2)
	if err == nil || !strings.Contains(err.Error(), "max iterations") {
		t.Fatalf("one instance: want max-iterations error, got %v", err)
	}
	res, err := runBounded(t, 2, 10, 0.001, 50, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Instances[0].Iterations, res.Instances[1].Iterations
	if a == 0 || b == 0 || res.Iterations != a+b {
		t.Fatalf("iterations %d + %d, total %d", a, b, res.Iterations)
	}
	_, err = runBounded(t, 2, 10, 0.001, 50, 0, max(a, b))
	if err == nil || !strings.Contains(err.Error(), "max iterations") {
		t.Fatalf("two instances under a per-instance bound of %d: want max-iterations error, got %v", max(a, b), err)
	}
}

func TestQueueOrdersByReadyThenID(t *testing.T) {
	var q Queue
	var got []int
	add := func(ready float64, id int) {
		q.Schedule(ready, id, func() { got = append(got, id) })
	}
	add(2.0, 1)
	add(1.0, 9)
	add(1.0, 3)
	add(2.0, 0)
	add(0.5, 5)
	if len(q.items) != 5 {
		t.Fatalf("len %d", len(q.items))
	}
	for len(q.items) > 0 {
		q.pop().deliver()
	}
	want := []int{5, 3, 9, 0, 1}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}
