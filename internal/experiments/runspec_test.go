package experiments

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// singleVLLM replays reqs through one vLLM system (no speculation) and
// returns the outcome plus every request the run finished, in finish
// order.
func singleVLLM(t *testing.T, reqs []*request.Request) (*Outcome, []*request.Request, error) {
	t.Helper()
	var done []*request.Request
	out, err := RunSpec{Kind: SysVLLM, Setup: Llama70B(), Seed: 1, Requests: reqs,
		Observers: []serve.Observer{serve.ObserverFunc(func(ev serve.Event) {
			if e, ok := ev.(serve.RequestFinished); ok {
				done = append(done, e.Req)
			}
		})}}.Run()
	return out, done, err
}

func mkReqs(n int, gap float64) []*request.Request {
	reqs := make([]*request.Request, n)
	for i := range reqs {
		reqs[i] = request.New(i, request.Chat, 0.05, float64(i)*gap, 64, 8, uint64(i)*13+1)
	}
	return reqs
}

func TestRunCompletesAllRequests(t *testing.T) {
	res, done, err := singleVLLM(t, mkReqs(10, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Aggregate.Finished != 10 || len(done) != 10 {
		t.Fatalf("finished %d (%d events) of 10", res.Summary.Aggregate.Finished, len(done))
	}
	if res.EndTime <= 0 || res.Iterations <= 0 {
		t.Fatalf("degenerate result %+v", res.Result)
	}
	for _, r := range done {
		if r.Phase != request.Done {
			t.Fatalf("request %d phase %s", r.ID, r.Phase)
		}
	}
}

func TestRunHandlesIdleGaps(t *testing.T) {
	// Arrivals separated by long gaps: the simulator must jump the clock.
	res, _, err := singleVLLM(t, mkReqs(3, 100.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.EndTime < 200 {
		t.Fatalf("clock did not advance across gaps: end %.1f", res.EndTime)
	}
	// With near-zero load every request should attain.
	if res.Summary.Attainment() != 1 {
		t.Fatalf("attainment %.2f at zero load", res.Summary.Attainment())
	}
}

func TestRunValidatesRequests(t *testing.T) {
	bad := request.New(1, request.Chat, 0, 0, 64, 8, 1)
	if _, _, err := singleVLLM(t, []*request.Request{bad}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestRunDetectsDeadlock(t *testing.T) {
	// A prompt larger than the whole KV cache: admission can never succeed.
	reqs := []*request.Request{request.New(1, request.Chat, 0.05, 0, 1<<26, 8, 1)}
	_, _, err := singleVLLM(t, reqs)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestRunDefaultBoundsPermitNormalRuns(t *testing.T) {
	// A run uses the generous driver defaults, not zero budgets.
	if _, _, err := singleVLLM(t, mkReqs(3, 0.05)); err != nil {
		t.Fatalf("default bounds aborted a normal run: %v", err)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() (float64, int) {
		res, _, err := singleVLLM(t, mkReqs(20, 0.05))
		if err != nil {
			t.Fatal(err)
		}
		return res.EndTime, res.Iterations
	}
	e1, i1 := run()
	e2, i2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("runs diverged: (%g,%d) vs (%g,%d)", e1, i1, e2, i2)
	}
}

func TestRunBreakdownAccumulates(t *testing.T) {
	res, _, err := singleVLLM(t, mkReqs(5, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	b := res.Breakdown
	if b.Verification <= 0 || b.Prefill <= 0 || b.Scheduling <= 0 {
		t.Fatalf("breakdown %+v", b)
	}
	// vLLM does not speculate.
	if b.Speculation != 0 {
		t.Fatalf("vLLM reported speculation time %g", b.Speculation)
	}
	// Total busy time cannot exceed the simulated span.
	if b.Total() > res.EndTime {
		t.Fatalf("busy %.3fs exceeds wall %.3fs", b.Total(), res.EndTime)
	}
}

func TestRunArrivalsVisibleAtBoundaries(t *testing.T) {
	// A request arriving mid-iteration must not be admitted until the
	// iteration after its arrival: its AdmitTime >= its ArrivalTime.
	_, done, err := singleVLLM(t, mkReqs(10, 0.013))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range done {
		if r.AdmitTime < r.ArrivalTime {
			t.Fatalf("request %d admitted at %.3f before arrival %.3f",
				r.ID, r.AdmitTime, r.ArrivalTime)
		}
	}
}

// TestRunSpecWorkloadsByFleet runs every workload kind on every fleet
// shape — a single system, a colocated fleet, a 2P2D disaggregated fleet
// and an elastic fleet under a crash with retry — twice each, and requires
// equal outcomes: a spec (rebuilt for its session workload) fully
// determines its run.
func TestRunSpecWorkloadsByFleet(t *testing.T) {
	setup := Llama70B()
	const duration = 6
	reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, 4, duration, 1)
	if err != nil {
		t.Fatal(err)
	}
	bursty, err := traceSpec("bursty")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := compileTraceSpec(bursty, setup, RunOptions{Seed: 1, Duration: duration})
	if err != nil {
		t.Fatal(err)
	}
	crash, err := faults.ParseSpec(fmt.Sprintf("crash@%g+%g:r0", duration/4.0, duration/6.0))
	if err != nil {
		t.Fatal(err)
	}
	split, err := cluster.ParseSplit("2P2D")
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]func(*RunSpec){
		"requests": func(s *RunSpec) { s.Requests = reqs },
		"trace":    func(s *RunSpec) { s.Trace = tr },
		"open":     func(s *RunSpec) { s.Open = &OpenLoad{Profile: "spike", RPS: 6, Salt: 0x5} },
		"sessions": func(s *RunSpec) {
			sessions, err := NewSessions(setup, s.Seed)
			if err != nil {
				t.Fatal(err)
			}
			s.Sessions = sessions
		},
	}
	fleets := map[string]func(*RunSpec){
		"single":    func(*RunSpec) {},
		"colocated": func(s *RunSpec) { s.Roles, s.Router = make([]cluster.Role, 2), "least-loaded" },
		"2P2D":      func(s *RunSpec) { s.Roles, s.Router = split, "slo-aware" },
		"elastic+faults": func(s *RunSpec) {
			s.Roles, s.Router, s.InitialActive = make([]cluster.Role, 3), "slo-aware", 2
			s.Controls = Controls{Policy: "rate-prop", Faults: crash, Recovery: faults.RecoveryRetry}
		},
	}
	for wname, wl := range workloads {
		for fname, fleet := range fleets {
			t.Run(wname+"/"+fname, func(t *testing.T) {
				run := func() *Outcome {
					s := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: 1, Duration: duration}
					wl(&s)
					fleet(&s)
					out, err := s.Run()
					if err != nil {
						t.Fatal(err)
					}
					return out
				}
				a, b := run(), run()
				if a.Summary.Aggregate.Finished == 0 {
					t.Fatal("run finished no request")
				}
				if (a.Fleet == nil) != (fname == "single") {
					t.Fatalf("fleet result %v for fleet %s", a.Fleet, fname)
				}
				if !reflect.DeepEqual(a.Result, b.Result) || !reflect.DeepEqual(a.Summary, b.Summary) {
					t.Fatalf("reruns differ:\n%+v\n%+v", a.Summary.Aggregate, b.Summary.Aggregate)
				}
			})
		}
	}
}

// TestLowerRejectsBadSpecs covers the spec validation: exactly one
// workload, and finite, non-negative durations and snapshot settings.
func TestLowerRejectsBadSpecs(t *testing.T) {
	reqs := mkReqs(2, 0.1)
	cases := []struct {
		name string
		spec RunSpec
		want string
	}{
		{"no workload", RunSpec{}, "exactly one workload"},
		{"two workloads", RunSpec{Requests: reqs, Open: &OpenLoad{Profile: "constant", RPS: 1}}, "exactly one workload"},
		{"NaN duration", RunSpec{Duration: math.NaN(), Requests: reqs}, "duration"},
		{"infinite duration", RunSpec{Duration: math.Inf(1), Requests: reqs}, "duration"},
		{"negative duration", RunSpec{Duration: -1, Requests: reqs}, "duration"},
		{"NaN snapshots", RunSpec{SnapshotEvery: math.NaN(), Requests: reqs}, "snapshot"},
		{"infinite window", RunSpec{Window: math.Inf(1), Requests: reqs}, "snapshot"},
		{"open loop without duration", RunSpec{Open: &OpenLoad{Profile: "constant", RPS: 1}}, "duration"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.spec.Kind, c.spec.Setup = SysVLLM, Llama70B()
			if _, err := c.spec.Lower(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Lower() error = %v, want one containing %q", err, c.want)
			}
		})
	}
}
