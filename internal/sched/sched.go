// Package sched implements the serving systems under evaluation: AdaServe's
// SLO-customized scheduler and the six baselines the paper compares against
// (vLLM continuous batching, Sarathi-Serve chunked prefill, vLLM+priority,
// vLLM-Spec static speculation, FastServe MLFQ, and VTC fair scheduling).
//
// Every system shares the same substrate — an execution engine, a paged KV
// allocator, and a request pool — and exposes one operation: Iterate, which
// performs one scheduling-plus-execution iteration starting at a given
// simulated time and reports how long it took. The unified event-driven
// driver in internal/serve advances the clock and delivers arrivals, to a
// single system or to every replica of an internal/cluster fleet.
package sched

import (
	"fmt"
	"sort"

	"adaserve/internal/engine"
	"adaserve/internal/kvcache"
	"adaserve/internal/request"
)

// IterationStats reports one iteration of a serving system.
type IterationStats struct {
	// Elapsed is the simulated duration of the iteration (GPU + CPU).
	Elapsed float64
	// SchedCPU is the CPU scheduling/selection time included in Elapsed.
	SchedCPU float64
	// SpecTime, VerifyTime and PrefillTime are the GPU components.
	SpecTime, VerifyTime, PrefillTime float64
	// TokensCommitted counts output tokens committed this iteration.
	TokensCommitted int
	// Idle reports that the system had no work (Elapsed is 0).
	Idle bool
}

// System is one serving system instance.
type System interface {
	// Name identifies the system in reports (e.g. "vLLM-Spec (4)").
	Name() string
	// Pool returns the system's request pool; the driver enqueues arrivals
	// into it.
	Pool() *request.Pool
	// Iterate runs one iteration starting at simulated time now.
	Iterate(now float64) IterationStats
	// Release frees engine-side state (KV reservation) held for a request
	// that leaves the system without finishing — the disaggregated cluster
	// driver calls it when migrating a prefill-complete request to a decode
	// replica. Releasing a request the system holds nothing for is a no-op.
	Release(r *request.Request)
}

// Mode restricts which lifecycle stage a system admits and serves, so an
// unchanged scheduler can run as a role-restricted replica in a
// disaggregated prefill/decode cluster.
type Mode int

const (
	// ModeMixed is the colocated default: admit everything, serve both
	// prefill and decode.
	ModeMixed Mode = iota
	// ModePrefill admits only requests that still need prompt processing and
	// reserves KV for the prompt alone (prefill-replica KV turns over at
	// migration, so output tokens never materialize here). The cluster
	// driver migrates requests away at the iteration boundary where their
	// prefill completes, so decode work never accumulates.
	ModePrefill
	// ModeDecode admits only requests whose prompt is fully processed
	// (migrated in with their KV), reserving full prompt+output capacity.
	ModeDecode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeMixed:
		return "mixed"
	case ModePrefill:
		return "prefill"
	case ModeDecode:
		return "decode"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config carries the substrate shared by all systems.
type Config struct {
	Engine *engine.Engine
	KV     *kvcache.Allocator
	// MaxBatch caps concurrently running sequences (admission control).
	MaxBatch int
	// MaxPrefillTokens bounds tokens per prefill-focused iteration.
	MaxPrefillTokens int
	// SchedOverhead is the fixed per-iteration CPU cost in seconds,
	// calibrated to a production scheduler's bookkeeping.
	SchedOverhead float64
	// Mode restricts admission for role-restricted replicas (default
	// ModeMixed: no restriction).
	Mode Mode
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Engine == nil {
		return fmt.Errorf("sched: engine required")
	}
	if c.KV == nil {
		return fmt.Errorf("sched: KV allocator required")
	}
	if c.MaxBatch <= 0 {
		return fmt.Errorf("sched: MaxBatch %d <= 0", c.MaxBatch)
	}
	if c.MaxPrefillTokens <= 0 {
		return fmt.Errorf("sched: MaxPrefillTokens %d <= 0", c.MaxPrefillTokens)
	}
	if c.SchedOverhead < 0 {
		return fmt.Errorf("sched: negative scheduler overhead")
	}
	return nil
}

// base holds the machinery common to all systems.
type base struct {
	cfg  Config
	pool *request.Pool
}

func newBase(cfg Config) (base, error) {
	if err := cfg.validate(); err != nil {
		return base{}, err
	}
	return base{cfg: cfg, pool: request.NewPool()}, nil
}

// Pool implements System.
func (b *base) Pool() *request.Pool { return b.pool }

// Release implements System: it drops the KV reservation of a request
// migrating away (no-op when none is held). The request's prefill progress is
// published to the prefix cache first, so a prefill replica's completed
// prompts stay matchable after the migrant's KV is handed off.
func (b *base) Release(r *request.Request) {
	if b.cfg.KV.Has(r.ID) {
		b.cfg.KV.MarkComputed(r.ID, r.PrefillDone)
		if err := b.cfg.KV.Free(r.ID); err != nil {
			panic(err)
		}
	}
}

// reserveTokens is the KV reservation for a request: the full context it can
// ever need plus slack for in-flight speculative tokens. Reserving up front
// keeps the simulators deterministic (no mid-decode OOM preemption paths,
// which none of the compared policies rely on). A prefill-only replica
// reserves for the prompt alone: its KV is handed off at migration, before
// any output token exists.
func (b *base) reserveTokens(r *request.Request) int {
	if b.cfg.Mode == ModePrefill {
		return r.PromptLen + 16
	}
	return r.PromptLen + r.MaxNewTokens + 16
}

// admits reports whether the system's mode accepts a waiting request:
// prefill replicas take only requests with prompt work left, decode replicas
// only prefill-complete migrants — plus recompute fallbacks, whose prompt KV
// was lost in a failed transfer and must be rebuilt on the destination.
func (b *base) admits(r *request.Request) bool {
	switch b.cfg.Mode {
	case ModePrefill:
		return r.RemainingPrefill() > 0
	case ModeDecode:
		return r.RemainingPrefill() == 0 || r.Recompute
	default:
		return true
	}
}

// admitFIFO admits waiting requests in FIFO order while batch and KV
// capacity allow. Requests resumed from preemption keep their allocation.
func (b *base) admitFIFO(now float64) {
	b.admitOrdered(now, nil)
}

// admitOrdered admits waiting requests in the order induced by less (nil
// means the pool's FIFO order), bounded by MaxBatch and KV capacity.
func (b *base) admitOrdered(now float64, less func(a, c *request.Request) bool) {
	waiting := append([]*request.Request(nil), b.pool.Waiting()...)
	if less != nil {
		sort.SliceStable(waiting, func(i, j int) bool { return less(waiting[i], waiting[j]) })
	}
	for _, r := range waiting {
		if b.pool.NumRunning() >= b.cfg.MaxBatch {
			return
		}
		if !b.admits(r) {
			continue
		}
		if !b.cfg.KV.Has(r.ID) {
			if err := b.allocateKV(r); err != nil {
				// Capacity exhausted: later arrivals cannot help (FIFO), and
				// for ordered admission smaller requests may still fit.
				if less == nil {
					return
				}
				continue
			}
		}
		b.pool.Admit(r, now)
	}
}

// allocateKV reserves KV for a not-yet-admitted request. With prefix caching
// enabled the prompt is matched against the cache first (the allocator reads
// r's content seeds block by block): the matched prefix is taken by
// reference instead of allocated, the request's PrefillDone jumps past it
// (the engine then charges only the uncached suffix, while still attending
// over the full cached context), and any host-tier reload latency is queued
// on the request for its first prefill pass. The match is capped one token short of the full prompt so every
// request keeps at least one prefill token — admission modes and engine
// phase transitions stay exactly as without caching.
func (b *base) allocateKV(r *request.Request) error {
	if !b.cfg.KV.PrefixEnabled() {
		return b.cfg.KV.Allocate(r.ID, b.reserveTokens(r))
	}
	limit := 0
	if r.PrefillDone == 0 && r.PromptLen > 1 {
		limit = r.PromptLen - 1
	}
	hit, err := b.cfg.KV.AllocateWithPrefix(r.ID, b.reserveTokens(r), r, limit)
	if err != nil {
		return err
	}
	if hit.Tokens > 0 {
		r.PrefillDone = hit.Tokens
		r.ReloadStall += hit.Stall
	}
	return nil
}

// KVPrefixStats returns the KV allocator's prefix-cache counters; ok is
// false when prefix caching is disabled.
func (b *base) KVPrefixStats() (kvcache.PrefixStats, bool) {
	if !b.cfg.KV.PrefixEnabled() {
		return kvcache.PrefixStats{}, false
	}
	return b.cfg.KV.PrefixStats(), true
}

// PrefixCachedTokens probes how many of r's prompt tokens this system's KV
// cache already holds computed — the signal the cluster's prefix-affinity
// router steers on, once per replica per arrival. Read-only and
// allocation-free apart from extending r's fingerprint chain; 0 when prefix
// caching is off. The probe reads r's prompt one block at a time and stops
// at the first uncached block, so a replica that holds none of the prompt
// costs one block fingerprint. A fingerprint r.PrefixChain already holds —
// an earlier replica's probe, or the session's earlier turns, computed it —
// costs no hashing, so across a fleet each block is hashed once. It uses the
// same PromptLen-1 cap as allocation, so against an unchanged cache it
// predicts the admission-time hit exactly.
func (b *base) PrefixCachedTokens(r *request.Request) int {
	if !b.cfg.KV.PrefixEnabled() || r.PromptLen <= 1 {
		return 0
	}
	return b.cfg.KV.MatchPrefixTokens(r, r.PromptLen-1)
}

// finish retires done requests and releases their KV. Prefill progress is
// published to the prefix cache first (a no-op when caching is off): every
// sequence passes through here at least one iteration after its prefill
// completes, so shared prompt blocks become matchable before — and cold
// rather than dropped when — their last holder retires.
func (b *base) finish() {
	if b.cfg.KV.PrefixEnabled() {
		for _, r := range b.pool.Running() {
			if r.PrefillDone > 0 && b.cfg.KV.Has(r.ID) {
				b.cfg.KV.MarkComputed(r.ID, r.PrefillDone)
			}
		}
	}
	for _, r := range b.pool.Running() {
		if r.Phase == request.Done && b.cfg.KV.Has(r.ID) {
			if err := b.cfg.KV.Free(r.ID); err != nil {
				panic(err)
			}
		}
	}
	b.pool.Finish()
}

// prefillWhole runs one vLLM-style prefill-prioritized iteration: whole
// prompts, FIFO, packing more requests while the token budget lasts (the
// first prompt always runs even if it alone exceeds the budget). Returns
// stats and whether any prefill work was done.
func (b *base) prefillWhole(now float64) (IterationStats, bool) {
	pre := b.pool.PrefillingRequests()
	if len(pre) == 0 {
		return IterationStats{}, false
	}
	budget := b.cfg.MaxPrefillTokens
	var items []engine.PrefillItem
	for _, r := range pre {
		rem := r.RemainingPrefill()
		if len(items) > 0 && rem > budget {
			break
		}
		items = append(items, engine.PrefillItem{Req: r, Chunk: rem})
		budget -= rem
		if budget <= 0 {
			break
		}
	}
	gpuTime := b.cfg.Engine.Pass(nil, items)
	st := IterationStats{
		Elapsed:     gpuTime + b.cfg.SchedOverhead,
		SchedCPU:    b.cfg.SchedOverhead,
		PrefillTime: gpuTime,
	}
	return st, true
}

// decodeStep runs one count-only iteration of the non-speculative systems:
// it stamps run's first decode, runs one pass of a decode token per request
// in run plus the prefill chunks, and commits each decode token by count at
// the iteration end (now + Elapsed).
func (b *base) decodeStep(now float64, run []*request.Request, prefill []engine.PrefillItem) IterationStats {
	markFirstDecode(run, now)
	gpuTime := b.cfg.Engine.Pass(run, prefill)
	st := IterationStats{
		Elapsed:    gpuTime + b.cfg.SchedOverhead,
		SchedCPU:   b.cfg.SchedOverhead,
		VerifyTime: gpuTime,
	}
	end := now + st.Elapsed
	for _, r := range run {
		st.TokensCommitted += r.CommitCount(1, end)
		r.VerifySteps++
	}
	return st
}

// markFirstDecode stamps FirstDecodeTime for requests entering their first
// decode iteration: the reference point of the paper's TPOT accounting.
func markFirstDecode(reqs []*request.Request, now float64) {
	for _, r := range reqs {
		if r.FirstDecodeTime < 0 {
			r.FirstDecodeTime = now
		}
	}
}

// sortStable sorts requests with the given ordering.
func sortStable(reqs []*request.Request, less func(a, c *request.Request) bool) {
	sort.SliceStable(reqs, func(i, j int) bool { return less(reqs[i], reqs[j]) })
}
