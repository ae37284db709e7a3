package workload

import (
	"testing"

	"adaserve/internal/request"
)

func sessionConfig() SessionsConfig {
	return SessionsConfig{
		Seed:            7,
		Tenants:         3,
		SystemPromptLen: 64,
		Turns:           3,
		Category:        request.Chat,
		BaselineLatency: 0.033,
		ArrivalSpacing:  0.25,
		ThinkTime:       0.5,
	}
}

func TestNewSessionsValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SessionsConfig)
	}{
		{"no tenants", func(c *SessionsConfig) { c.Tenants = 0 }},
		{"negative system prompt", func(c *SessionsConfig) { c.SystemPromptLen = -1 }},
		{"no turns", func(c *SessionsConfig) { c.Turns = 0 }},
		{"no baseline", func(c *SessionsConfig) { c.BaselineLatency = 0 }},
		{"negative think time", func(c *SessionsConfig) { c.ThinkTime = -1 }},
		{"negative spacing", func(c *SessionsConfig) { c.ArrivalSpacing = -1 }},
		{"unknown category", func(c *SessionsConfig) { c.Category = request.Category(99) }},
	}
	for _, tc := range cases {
		cfg := sessionConfig()
		tc.mutate(&cfg)
		if _, err := NewSessions(cfg); err == nil {
			t.Errorf("%s: NewSessions accepted invalid config", tc.name)
		}
	}
	if _, err := NewSessions(sessionConfig()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// newSessions builds a session generator, failing the test on a bad config.
func newSessions(t *testing.T, cfg SessionsConfig) *Sessions {
	t.Helper()
	ss, err := NewSessions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// finishTurn simulates the engine serving a turn: commit `out` output tokens
// so FollowUp sees the assistant reply it should fold into the conversation.
func finishTurn(r *request.Request, out int) {
	r.Generated = out
}

func TestSessionsConversationGrowth(t *testing.T) {
	ss := newSessions(t, sessionConfig())
	initial := ss.InitialRequests()
	if len(initial) != 3 {
		t.Fatalf("got %d initial turns, want 3", len(initial))
	}
	for i, r := range initial {
		// Tenant i's opening turn: staggered arrival, system prompt as the
		// first segment, exactly one user segment after it.
		if want := float64(i) * 0.25; r.ArrivalTime != want {
			t.Errorf("tenant %d arrival %g, want %g", i, r.ArrivalTime, want)
		}
		if len(r.PromptSegs) != 2 {
			t.Fatalf("tenant %d: %d prompt segments, want 2", i, len(r.PromptSegs))
		}
		if r.PromptSegs[0].Len != 64 {
			t.Errorf("tenant %d system prompt len %d, want 64", i, r.PromptSegs[0].Len)
		}
		if r.TTFTSLO == 0 {
			t.Errorf("tenant %d turn missing TTFT SLO", i)
		}
	}
	if ss.Issued() != 3 || len(ss.open) != 3 {
		t.Fatalf("issued %d outstanding %d, want 3/3", ss.Issued(), len(ss.open))
	}

	// Tenants 0 and 1 share no segments (different seeds), but a tenant's
	// follow-up strictly extends its own finished turn.
	r0 := initial[0]
	finishTurn(r0, 10)
	next := ss.FollowUp(r0, 5.0)
	if next == nil {
		t.Fatal("FollowUp returned nil with turn budget remaining")
	}
	if next.ArrivalTime != 5.5 {
		t.Errorf("follow-up arrival %g, want now+think=5.5", next.ArrivalTime)
	}
	// prior prompt segs + assistant reply + new user turn
	if want := len(r0.PromptSegs) + 2; len(next.PromptSegs) != want {
		t.Fatalf("follow-up has %d segs, want %d", len(next.PromptSegs), want)
	}
	for i, seg := range r0.PromptSegs {
		if next.PromptSegs[i] != seg {
			t.Fatalf("follow-up seg %d diverged from finished turn", i)
		}
	}
	if reply := next.PromptSegs[len(r0.PromptSegs)]; reply.Len != 10 {
		t.Errorf("assistant reply segment len %d, want the 10 committed tokens", reply.Len)
	}
	if len(ss.open) != 3 {
		t.Fatalf("outstanding %d after one finish+follow-up, want 3", len(ss.open))
	}

	// A request the generator never issued (or one already consumed) is
	// ignored.
	if ss.FollowUp(r0, 6.0) != nil {
		t.Error("FollowUp accepted an already-consumed turn")
	}
	stranger := request.New(999, request.Chat, 1, 0, 16, 4, 1)
	if ss.FollowUp(stranger, 6.0) != nil {
		t.Error("FollowUp accepted a foreign request")
	}

	// Drain tenant 0's conversation: the turn budget (3) ends it.
	finishTurn(next, 4)
	last := ss.FollowUp(next, 8.0)
	if last == nil {
		t.Fatal("turn 3 of 3 should still be issued")
	}
	if ss.FollowUp(last, 10.0) != nil {
		t.Error("conversation continued past the turn budget")
	}
}

func TestSessionsZeroOutputReply(t *testing.T) {
	// A finished turn with no committed output contributes no assistant
	// segment — the next prompt is exactly the previous one plus a new user
	// turn.
	ss := newSessions(t, sessionConfig())
	r := ss.InitialRequests()[0]
	next := ss.FollowUp(r, 1.0)
	if next == nil {
		t.Fatal("FollowUp returned nil")
	}
	if want := len(r.PromptSegs) + 1; len(next.PromptSegs) != want {
		t.Fatalf("got %d segs, want %d (no assistant segment)", len(next.PromptSegs), want)
	}
}

func TestSessionsContextWindowEndsSession(t *testing.T) {
	cfg := sessionConfig()
	cfg.Tenants = 1
	cfg.Turns = 100
	// The system prompt fills all but 2048 tokens of the window: the first
	// turn (user ≤ 1024 + output ≤ 512) fits, and a handful more follow.
	cfg.SystemPromptLen = MaxContext - 2048
	ss := newSessions(t, cfg)
	initial := ss.InitialRequests()
	if len(initial) != 1 {
		t.Fatalf("got %d initial turns, want 1", len(initial))
	}
	r := initial[0]
	turns := 1
	for {
		finishTurn(r, 64)
		next := ss.FollowUp(r, float64(turns))
		if next == nil {
			break
		}
		if next.PromptLen+next.MaxNewTokens > MaxContext {
			t.Fatalf("turn %d prompt %d exceeds the context budget", turns, next.PromptLen)
		}
		r = next
		turns++
		if turns > 100 {
			t.Fatal("session never hit the context window")
		}
	}
	if turns >= 100 {
		t.Fatal("expected the context window, not the turn budget, to end the session")
	}
	if len(ss.open) != 0 {
		t.Fatalf("outstanding %d after session end, want 0", len(ss.open))
	}
}

func TestSessionsDeterministicAcrossFinishOrder(t *testing.T) {
	// Two runs finishing turns in different global orders produce identical
	// per-tenant turn sequences: sampling is per-session, so routing (which
	// reorders finishes) cannot change the offered load.
	type turnKey struct {
		prompt, output int
	}
	collect := func(order []int) map[int][]turnKey {
		ss := newSessions(t, sessionConfig())
		byTenant := map[int][]turnKey{}
		live := ss.InitialRequests()
		for i, r := range live {
			byTenant[i] = append(byTenant[i], turnKey{r.PromptLen, r.MaxNewTokens})
		}
		tenantOf := map[*request.Request]int{live[0]: 0, live[1]: 1, live[2]: 2}
		for turn := 0; turn < 2; turn++ {
			next := make([]*request.Request, len(live))
			for _, i := range order {
				r := live[i]
				finishTurn(r, 8)
				n := ss.FollowUp(r, float64(10*turn+i))
				if n == nil {
					t.Fatalf("tenant %d turn %d ended early", i, turn)
				}
				tenant := tenantOf[r]
				tenantOf[n] = tenant
				byTenant[tenant] = append(byTenant[tenant], turnKey{n.PromptLen, n.MaxNewTokens})
				next[i] = n
			}
			live = next
		}
		return byTenant
	}
	a := collect([]int{0, 1, 2})
	b := collect([]int{2, 0, 1})
	for tenant, turns := range a {
		got := b[tenant]
		if len(got) != len(turns) {
			t.Fatalf("tenant %d: %d turns vs %d", tenant, len(got), len(turns))
		}
		for i := range turns {
			if got[i] != turns[i] {
				t.Fatalf("tenant %d turn %d differs across finish orders: %+v vs %+v",
					tenant, i, turns[i], got[i])
			}
		}
	}
}

// TestSessionsShareOneChainPerConversation pins the fingerprint memo's
// lifetime: every turn of a session points at the session's one chain,
// different sessions never share one, and a finished turn holds none once
// FollowUp has consumed it — the requests a run's results keep pin no
// fingerprints.
func TestSessionsShareOneChainPerConversation(t *testing.T) {
	ss := newSessions(t, sessionConfig())
	initial := ss.InitialRequests()
	if initial[0].PrefixChain == nil || initial[0].PrefixChain == initial[1].PrefixChain {
		t.Fatal("each session's turn needs its own chain")
	}
	r := initial[0]
	chain := r.PrefixChain
	for turn := 1; ; turn++ {
		finishTurn(r, 5)
		next := ss.FollowUp(r, float64(turn))
		if r.PrefixChain != nil {
			t.Fatalf("turn %d still holds its chain after FollowUp", turn)
		}
		if next == nil {
			break
		}
		if next.PrefixChain != chain {
			t.Fatalf("turn %d got a chain other than its session's", turn+1)
		}
		r = next
	}
}
