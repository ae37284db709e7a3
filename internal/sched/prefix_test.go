package sched

import (
	"sort"
	"testing"

	"adaserve/internal/kvcache"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// prefixSystem builds an AdaServe system whose KV allocator has shared-prefix
// caching enabled, with a sized host tier and a fixed per-token reload price.
func prefixSystem(t *testing.T) System {
	t.Helper()
	cfg := testConfig(t)
	if err := cfg.KV.EnablePrefix(kvcache.PrefixConfig{
		HostBlocks:    256,
		ReloadLatency: func(tokens int) float64 { return 1e-6 * float64(tokens) },
	}); err != nil {
		t.Fatal(err)
	}
	sys, err := NewAdaServe(cfg, AdaServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// sharedPromptReq builds a request whose prompt starts with a 512-token
// shared segment (same content seed across calls) followed by a per-request
// private tail.
func sharedPromptReq(id int, tail int) *request.Request {
	r := request.New(id, request.Chat, 0.05, 0, 512+tail, 8, uint64(id)*977+5)
	r.PromptSegs = []request.PromptSegment{
		{Seed: 0xc0ffee, Len: 512},
		{Seed: uint64(id) + 1, Len: tail},
	}
	return r
}

// TestSchedPrefixReuseAcrossRequests drives the admission-side prefix flow
// end to end through a real scheduler: the first request registers its
// prompt blocks, the second matches them, jumps PrefillDone past the cached
// prefix, and the stats/probe surfaces agree.
func TestSchedPrefixReuseAcrossRequests(t *testing.T) {
	sys := prefixSystem(t)

	first := sharedPromptReq(1, 64)
	if got := sys.(*AdaServe).PrefixCachedTokens(first); got != 0 {
		t.Fatalf("cold cache probe reports %d cached tokens", got)
	}
	sys.Pool().Enqueue(first)
	drain(t, sys, 10000)

	second := sharedPromptReq(2, 96)
	probe := sys.(*AdaServe).PrefixCachedTokens(second)
	if probe < 256 {
		t.Fatalf("probe reports %d cached tokens after the donor finished, want >= 256", probe)
	}
	sys.Pool().Enqueue(second)
	// One iteration admits the request (applying the cached jump) and runs
	// its first — and, with the jump, only — prefill pass.
	sys.Iterate(0)
	if second.PrefillDone < probe {
		t.Fatalf("PrefillDone %d after admission, want the %d-token cached jump", second.PrefillDone, probe)
	}
	drain(t, sys, 10000)

	st, enabled := sys.(*AdaServe).KVPrefixStats()
	if !enabled {
		t.Fatal("KVPrefixStats reports prefix caching disabled")
	}
	if st.Hits < 1 || st.HitTokens < 256 {
		t.Fatalf("stats %+v, want at least one hit covering the shared prompt", st)
	}
	if st.Lookups < 2 {
		t.Fatalf("stats %+v, want a lookup per admission", st)
	}
	// The PromptLen-1 match cap keeps at least one prefill token: the hit
	// can never swallow the second request's whole prompt.
	if st.HitTokens >= second.PromptLen {
		t.Fatalf("hit tokens %d >= prompt %d; the cap must leave prefill work", st.HitTokens, second.PromptLen)
	}
}

// TestSchedPrefixDisabledStatsOff pins the disabled path: no stats surface
// and no probe signal, so the prefix-affinity router falls back cleanly.
func TestSchedPrefixDisabledStatsOff(t *testing.T) {
	cfg := testConfig(t)
	sys, err := NewAdaServe(cfg, AdaServeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, enabled := sys.KVPrefixStats(); enabled {
		t.Fatal("plain allocator reports prefix stats")
	}
	if got := sys.PrefixCachedTokens(sharedPromptReq(1, 64)); got != 0 {
		t.Fatalf("disabled probe reports %d cached tokens", got)
	}
}

// TestPrefixProbeAllocatesNothing pins the router-facing probe as
// allocation-free, both on a warm replica whose cache holds the prompt's
// shared prefix and on a cold one that misses on the first block.
func TestPrefixProbeAllocatesNothing(t *testing.T) {
	warm := prefixSystem(t).(*AdaServe)
	warm.Pool().Enqueue(sharedPromptReq(1, 64))
	drain(t, warm, 10000)
	cold := prefixSystem(t).(*AdaServe)

	r := sharedPromptReq(2, 1500)
	for _, c := range []struct {
		name   string
		sys    *AdaServe
		cached bool
	}{{"warm", warm, true}, {"cold", cold, false}} {
		if got := c.sys.PrefixCachedTokens(r); (got > 0) != c.cached {
			t.Fatalf("%s replica probes %d cached tokens", c.name, got)
		}
		if allocs := testing.AllocsPerRun(50, func() { c.sys.PrefixCachedTokens(r) }); allocs != 0 {
			t.Errorf("%s probe allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// TestPrefixProbePredictsAdmissionHit checks the probe's contract across a
// closed-loop session run: probed against the cache state admission sees,
// PrefixCachedTokens equals the hit admission then grants — cold first
// turns, warm follow-ups, and a block-aligned prompt re-sent verbatim,
// where both stop one block short under the PromptLen-1 cap.
func TestPrefixProbePredictsAdmissionHit(t *testing.T) {
	sys := prefixSystem(t).(*AdaServe)
	cold, warm := 0, 0
	// arrive admits r in the next iteration and checks that iteration's
	// hit against the probe. finish() first publishes the previous
	// iteration's prefill progress (Iterate's own finish() then has nothing
	// left to do), so r's admission is the next change to the cache and the
	// probe sees exactly what admission will.
	arrive := func(r *request.Request, now float64) (IterationStats, int) {
		t.Helper()
		sys.finish()
		probe := sys.PrefixCachedTokens(r)
		before, _ := sys.KVPrefixStats()
		sys.Pool().Enqueue(r)
		st := sys.Iterate(now)
		after, _ := sys.KVPrefixStats()
		if r.AdmitTime < 0 {
			t.Fatalf("request %d not admitted on arrival", r.ID)
		}
		if got := after.HitTokens - before.HitTokens; got != probe {
			t.Fatalf("request %d: probe predicted %d cached tokens, admission granted %d", r.ID, probe, got)
		}
		if probe == 0 {
			cold++
		} else {
			warm++
		}
		return st, probe
	}

	sessions, err := workload.NewSessions(workload.SessionsConfig{
		Seed: 11, Tenants: 3, SystemPromptLen: 200, Turns: 4, Category: request.Chat,
		BaselineLatency: 0.03, ArrivalSpacing: 0.05, ThinkTime: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pending := sessions.InitialRequests()
	now, handled := 0.0, 0
	for iter := 0; len(pending) > 0 || sys.Pool().NumRunning() > 0; iter++ {
		if iter > 100000 {
			t.Fatal("session run did not finish")
		}
		var st IterationStats
		if len(pending) > 0 && pending[0].ArrivalTime <= now {
			st, _ = arrive(pending[0], now)
			pending = pending[1:]
		} else {
			st = sys.Iterate(now)
		}
		now += st.Elapsed
		if st.Idle && len(pending) > 0 && sys.Pool().NumRunning() == 0 {
			now = max(now, pending[0].ArrivalTime)
		}
		for done := sys.Pool().Done(); handled < len(done); handled++ {
			if next := sessions.FollowUp(done[handled], now); next != nil {
				pending = append(pending, next)
				sort.SliceStable(pending, func(i, j int) bool { return pending[i].ArrivalTime < pending[j].ArrivalTime })
			}
		}
	}
	if cold < 3 || warm < 3 {
		t.Fatalf("%d cold and %d warm admissions, want first turns cold and follow-ups warm", cold, warm)
	}

	// A 512-token prompt (32 full blocks) served once, then re-sent.
	arrive(sharedPromptReq(1000, 0), now)
	drain(t, sys, 10000)
	if _, probe := arrive(sharedPromptReq(1001, 0), now); probe != 512-16 {
		t.Fatalf("re-sent block-aligned prompt probes %d cached tokens, want %d (capped one block short)", probe, 512-16)
	}
}
