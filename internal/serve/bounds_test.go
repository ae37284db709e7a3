package serve_test

import (
	"math"
	"strings"
	"testing"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

func mustGen(t *testing.T) *workload.Generator {
	t.Helper()
	return newGen(t, workload.GeneratorConfig{Seed: 1, Mix: workload.DefaultMix, BaselineLatency: 0.03})
}

// newGen builds a request generator, failing the test on a bad config.
func newGen(t *testing.T, cfg workload.GeneratorConfig) *workload.Generator {
	t.Helper()
	g, err := workload.NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func mustRNG() *mathutil.RNG { return mathutil.NewRNG(1) }

// The abort paths — deadlock detection and the shared run bounds — live in
// the unified driver, so they are tested once for every run, single system
// or fleet: deadlock here, the run bounds in serve_internal_test.go.

func TestRunDetectsDeadlock(t *testing.T) {
	// KV too small for the request: admission can never succeed.
	srv, err := serve.NewServer(serve.SingleSystem(testSystemKV(t, 3, 32)), serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := serve.NewTraceSource([]*request.Request{request.New(1, request.Chat, 0.05, 0, 64, 8, 1)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestTraceSourceValidatesAndCounts(t *testing.T) {
	if _, err := serve.NewTraceSource([]*request.Request{request.New(1, request.Chat, 0, 0, 64, 8, 1)}); err == nil {
		t.Fatal("invalid request accepted")
	}
	src, err := serve.NewTraceSource(mkReqs(3, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := src.Peek(); !ok {
			break
		}
		src.Pop()
		n++
	}
	if n != 3 {
		t.Fatalf("drained %d requests, want 3", n)
	}
}

func TestInstanceAccessors(t *testing.T) {
	backend := serve.SingleSystem(testSystem(t, 3))
	srv, err := serve.NewServer(backend, serve.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := serve.NewTraceSource(mkReqs(3, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := srv.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	in := backend.Instances()[0]
	if in.ID() != 0 || in.System() == nil {
		t.Fatalf("instance identity: id=%d", in.ID())
	}
	if in.Clock() != rr.EndTime || in.Iterations() != rr.Iterations {
		t.Fatalf("instance clock/iterations %g/%d vs result %g/%d",
			in.Clock(), in.Iterations(), rr.EndTime, rr.Iterations)
	}
	if in.Breakdown() != rr.Breakdown || in.Breakdown().Total() <= 0 {
		t.Fatalf("instance breakdown %+v", in.Breakdown())
	}
}

func TestViolationKindString(t *testing.T) {
	if serve.ViolationTPOT.String() != "tpot" || serve.ViolationTTFT.String() != "ttft" {
		t.Fatalf("kind names %q/%q", serve.ViolationTPOT, serve.ViolationTTFT)
	}
	if s := serve.ViolationKind(9).String(); !strings.Contains(s, "9") {
		t.Fatalf("unknown kind rendered %q", s)
	}
}

func TestNewOpenLoopValidates(t *testing.T) {
	gen := mustGen(t)
	rng := mustRNG()
	rate := func(float64) float64 { return 1.0 }
	cases := []struct {
		name string
		err  func() error
	}{
		{"nil gen", func() error { _, err := serve.NewOpenLoop(nil, rng, rate, 1, 10); return err }},
		{"nil rng", func() error { _, err := serve.NewOpenLoop(gen, nil, rate, 1, 10); return err }},
		{"nil rate", func() error { _, err := serve.NewOpenLoop(gen, rng, nil, 1, 10); return err }},
		{"zero max", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, 0, 10); return err }},
		{"zero duration", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, 1, 0); return err }},
		{"NaN max", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, math.NaN(), 10); return err }},
		{"infinite max", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, math.Inf(1), 10); return err }},
		{"NaN duration", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, 1, math.NaN()); return err }},
		{"infinite duration", func() error { _, err := serve.NewOpenLoop(gen, rng, rate, 1, math.Inf(1)); return err }},
	}
	for _, c := range cases {
		if c.err() == nil {
			t.Fatalf("%s accepted", c.name)
		}
	}
}

func TestSubmitSourceValidates(t *testing.T) {
	src := serve.NewSubmitSource()
	if err := src.Submit(request.New(1, request.Chat, 0, 0, 64, 8, 1)); err == nil {
		t.Fatal("invalid submission accepted")
	}
	if _, ok := src.Peek(); ok {
		t.Fatal("rejected submission is pending")
	}
}
