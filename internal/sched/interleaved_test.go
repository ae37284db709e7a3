package sched

import (
	"testing"

	"adaserve/internal/request"
)

func TestInterleavedConstruction(t *testing.T) {
	sys, err := NewAdaServeInterleaved(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != "AdaServe (interleaved)" {
		t.Fatalf("name %q", sys.Name())
	}
	if sys.budget <= 0 {
		t.Fatal("no budget")
	}
}

func TestInterleavedDrainsAndCommits(t *testing.T) {
	sys, err := NewAdaServeInterleaved(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	r := enqueue(sys, 1, request.Chat, 0.05, 0, 64, 24)
	now, specTime := 0.0, 0.0
	for i := 0; i < 500 && r.Phase != request.Done; i++ {
		st := sys.Iterate(now)
		now += st.Elapsed
		specTime += st.SpecTime
	}
	if r.Phase != request.Done {
		t.Fatalf("phase %s", r.Phase)
	}
	if acc := float64(r.AcceptedTokens) / float64(r.VerifySteps); acc < 2 {
		t.Fatalf("interleaved optimal trees accepted only %.2f/step", acc)
	}
	if specTime <= 0 {
		t.Fatal("no serial draft expansions charged")
	}
}

func TestInterleavedIsSlowerThanDecoupled(t *testing.T) {
	// The Challenge-2 claim: interleaved Algorithm 1 pays (B−n) serial
	// draft steps per iteration, so the same workload takes far longer in
	// wall-clock than the decoupled pipeline.
	runWith := func(build func(Config) (System, error)) float64 {
		sys, err := build(testConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			enqueue(sys, i+1, request.Chat, 0.05, 0, 64, 24)
		}
		return drain(t, sys, 5000)
	}
	decoupled := runWith(func(c Config) (System, error) { return NewAdaServe(c, AdaServeOptions{}) })
	interleaved := runWith(func(c Config) (System, error) { return NewAdaServeInterleaved(c) })
	if interleaved < decoupled*2 {
		t.Fatalf("interleaved %.2fs not clearly slower than decoupled %.2fs",
			interleaved, decoupled)
	}
}

func TestInterleavedSpecTimeDominates(t *testing.T) {
	sys, err := NewAdaServeInterleaved(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	enqueue(sys, 1, request.Chat, 0.05, 0, 64, 8)
	st := sys.Iterate(0) // prefill
	st = sys.Iterate(st.Elapsed)
	if st.SpecTime <= st.VerifyTime {
		t.Fatalf("serial draft time %.1fms should dominate verify %.1fms",
			1e3*st.SpecTime, 1e3*st.VerifyTime)
	}
}
