package workload

import (
	"fmt"

	"adaserve/internal/kvcache"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// SessionsConfig parameterizes multi-turn session synthesis.
type SessionsConfig struct {
	// Seed drives all sampling and prompt-content seeds.
	Seed uint64
	// Tenants is the number of concurrent tenants. Each tenant owns one
	// shared system prompt: every turn of every one of its sessions starts
	// with the same SystemPromptLen tokens, the prefix a shared-prefix KV
	// cache can serve without prefill.
	Tenants int
	// SystemPromptLen is the per-tenant system prompt length in tokens.
	SystemPromptLen int
	// Turns is the conversation length per tenant: one initial turn plus
	// Turns-1 follow-ups, each extending the prompt with the full prior
	// conversation (turn k re-sends everything turn k-1 saw plus its reply).
	Turns int
	// Category is the request category every turn carries; its
	// DefaultCategories entry supplies the SLOs and the per-turn
	// user/assistant length distributions.
	Category request.Category
	// BaselineLatency resolves factor-based SLOs, as in GeneratorConfig.
	BaselineLatency float64
	// ArrivalSpacing staggers the tenants' initial turns (tenant i arrives
	// at i × ArrivalSpacing seconds).
	ArrivalSpacing float64
	// ThinkTime is the gap between a turn finishing and the tenant's
	// follow-up arriving.
	ThinkTime float64
}

// session is one tenant's conversation state: the segments every future turn
// re-sends (system prompt plus completed turns), the turn counter, the
// tenant's private length RNG — per-session sampling keeps a tenant's turn
// sizes identical across runs that finish turns in different global orders
// (e.g. the same workload behind different routers), so compared cells face
// equal offered load — and the conversation's fingerprint chain. Every full
// prompt block of a turn is the same block of the next turn's prompt, and
// turns run one at a time, so all turns share the chain and prefix caching
// hashes each block of the conversation once.
type session struct {
	seed  uint64
	turn  int
	segs  []request.PromptSegment
	rng   *mathutil.RNG
	chain kvcache.Chain
}

// Sessions synthesizes multi-turn, multi-tenant conversations for closed-loop
// session serving: tenants share a per-tenant system prompt across turns, and
// each follow-up turn's prompt extends the full prior conversation, so both
// cross-request (same tenant, shared system prompt and history) and
// within-session prefix reuse are exactly reconstructible from the requests'
// PromptSegs. Drive it with InitialRequests to start the run, then call
// FollowUp from a RequestFinished observer to submit each next turn. Turn
// requests are numbered from 0, and a session whose next turn would exceed
// MaxContext ends early.
//
// All sampling is deterministic given the config seed and the (deterministic)
// order of FollowUp calls.
type Sessions struct {
	cfg    SessionsConfig
	spec   CategorySpec
	nextID int
	open   map[int]*session // outstanding turn's request ID → session
	issued int
}

// NewSessions validates and builds a session generator.
func NewSessions(cfg SessionsConfig) (*Sessions, error) {
	if cfg.Tenants <= 0 {
		return nil, fmt.Errorf("workload: sessions need at least one tenant, got %d", cfg.Tenants)
	}
	if cfg.SystemPromptLen < 0 {
		return nil, fmt.Errorf("workload: negative system prompt length %d", cfg.SystemPromptLen)
	}
	if cfg.Turns <= 0 {
		return nil, fmt.Errorf("workload: sessions need at least one turn, got %d", cfg.Turns)
	}
	if cfg.BaselineLatency <= 0 {
		return nil, fmt.Errorf("workload: baseline latency %g must be positive", cfg.BaselineLatency)
	}
	if cfg.ThinkTime < 0 || cfg.ArrivalSpacing < 0 {
		return nil, fmt.Errorf("workload: negative session timing")
	}
	var spec CategorySpec
	found := false
	for _, s := range DefaultCategories() {
		if s.category == cfg.Category {
			spec, found = s, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("workload: no spec for session category %v", cfg.Category)
	}
	return &Sessions{
		cfg:  cfg,
		spec: spec,
		open: make(map[int]*session),
	}, nil
}

// slo mirrors Generator.slo without SLO scaling.
func (ss *Sessions) slo() float64 {
	if ss.spec.sloFactor > 0 {
		return ss.spec.sloFactor * ss.cfg.BaselineLatency
	}
	return ss.spec.sloAbs
}

// makeTurn materializes a session's next turn arriving at time t: the prompt
// is the conversation so far plus a freshly sampled user segment.
func (ss *Sessions) makeTurn(s *session, t float64) *request.Request {
	userLen := ss.spec.prompt.Sample(s.rng)
	output := ss.spec.output.Sample(s.rng)
	segs := make([]request.PromptSegment, 0, len(s.segs)+1)
	segs = append(segs, s.segs...)
	segs = append(segs, request.PromptSegment{
		Seed: mathutil.Hash2(s.seed, uint64(2*s.turn)),
		Len:  userLen,
	})
	promptLen := 0
	for _, seg := range segs {
		promptLen += seg.Len
	}
	if promptLen+output > MaxContext {
		return nil // conversation outgrew the context window: session ends
	}
	id := ss.nextID
	ss.nextID++
	r := request.New(id, ss.cfg.Category, ss.slo(), t, promptLen, output,
		mathutil.Hash2(s.seed, uint64(s.turn)+0x7a31))
	r.TTFTSLO = ss.spec.TTFTSLOAbs
	r.PromptSegs = segs
	r.PrefixChain = &s.chain
	ss.open[id] = s
	ss.issued++
	return r
}

// InitialRequests returns every tenant's first turn, tenant i arriving at
// i × ArrivalSpacing. Call once, before the run.
func (ss *Sessions) InitialRequests() []*request.Request {
	out := make([]*request.Request, 0, ss.cfg.Tenants)
	for tenant := 0; tenant < ss.cfg.Tenants; tenant++ {
		s := &session{seed: mathutil.Hash2(ss.cfg.Seed, uint64(tenant)+0x5e55)}
		s.rng = mathutil.NewRNG(mathutil.Hash2(s.seed, 0x17e6))
		if ss.cfg.SystemPromptLen > 0 {
			s.segs = append(s.segs, request.PromptSegment{
				Seed: mathutil.Hash2(s.seed, 0xa11ce),
				Len:  ss.cfg.SystemPromptLen,
			})
		}
		if r := ss.makeTurn(s, float64(tenant)*ss.cfg.ArrivalSpacing); r != nil {
			out = append(out, r)
		}
	}
	return out
}

// FollowUp consumes a finished turn and returns the tenant's next one,
// arriving ThinkTime after now — or nil when the conversation is over (turn
// budget spent, context window full, or r was not an outstanding session
// turn). The finished turn's user segment and the assistant's actual reply
// length extend the conversation, so the next prompt is a strict
// continuation of everything the KV cache just computed. The finished turn
// gives up the session's chain, so the requests a run's results keep hold
// no fingerprints.
func (ss *Sessions) FollowUp(r *request.Request, now float64) *request.Request {
	s, ok := ss.open[r.ID]
	if !ok {
		return nil
	}
	delete(ss.open, r.ID)
	r.PrefixChain = nil
	// The conversation absorbs the finished turn: its full prompt (already
	// seg-aligned in r.PromptSegs) plus the assistant reply.
	s.segs = s.segs[:0]
	s.segs = append(s.segs, r.PromptSegs...)
	if out := r.OutputLen(); out > 0 {
		s.segs = append(s.segs, request.PromptSegment{
			Seed: mathutil.Hash2(s.seed, uint64(2*s.turn+1)),
			Len:  out,
		})
	}
	s.turn++
	if s.turn >= ss.cfg.Turns {
		return nil
	}
	return ss.makeTurn(s, now+ss.cfg.ThinkTime)
}

// Issued returns the number of turn requests generated so far.
func (ss *Sessions) Issued() int { return ss.issued }
