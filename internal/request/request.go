// Package request defines the serving request model shared by AdaServe and
// every baseline scheduler: application categories with TPOT SLOs, the
// request lifecycle, and the SLO-progress accounting (A(r)) from §3 of the
// paper.
package request

import (
	"fmt"

	"adaserve/internal/kvcache"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
)

// Category identifies the application class of a request (Table 2).
type Category int

const (
	// Coding is a latency-critical coding-copilot request (SLO = 1.2x
	// baseline decode latency, per the paper / MLPerf interactive).
	Coding Category = iota
	// Chat is a chatbot request (SLO = 50 ms/token).
	Chat
	// Summarization is a relaxed batch-style request (SLO = 150 ms/token).
	Summarization
	numCategories
)

// NumCategories is the number of defined categories.
const NumCategories = int(numCategories)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case Coding:
		return "coding"
	case Chat:
		return "chat"
	case Summarization:
		return "summarization"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Phase is a request's lifecycle stage.
type Phase int

const (
	// Queued: arrived, not yet admitted.
	Queued Phase = iota
	// Prefilling: admitted, prompt not fully processed.
	Prefilling
	// Decoding: generating output tokens.
	Decoding
	// Preempted: was decoding, paused by the scheduler (KV retained).
	Preempted
	// Done: finished or dropped.
	Done
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case Queued:
		return "queued"
	case Prefilling:
		return "prefilling"
	case Decoding:
		return "decoding"
	case Preempted:
		return "preempted"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Request is one inference request flowing through a serving system.
type Request struct {
	ID       int
	Category Category
	// TPOTSLO is the per-token latency target in seconds.
	TPOTSLO float64
	// TTFTSLO is the time-to-first-token target in seconds; 0 means the
	// request carries no TTFT SLO (AttainedTTFT then reports true). TTFT
	// spans arrival to first committed token, so in a disaggregated
	// deployment it covers prefill queueing, prefill, the KV transfer, and
	// the first decode iteration.
	TTFTSLO float64
	// Priority orders requests when schedulers prioritize; lower is more
	// urgent. Derived from the category by default.
	Priority int

	// ArrivalTime is the trace timestamp, seconds.
	ArrivalTime float64
	// PromptLen is the prompt length in tokens.
	PromptLen int
	// MaxNewTokens is the output length (generation stops there; the
	// synthetic LM has no EOS so traces fix output lengths).
	MaxNewTokens int
	// seed drives this request's synthetic text; two requests never share
	// token streams.
	seed uint64
	// PromptSegs optionally decomposes the prompt into content segments for
	// prefix caching: a session turn is [shared system prompt, prior turns...,
	// new user turn], and two requests share KV-cacheable content exactly
	// where their segment decompositions agree position by position. Segment
	// lengths must sum to PromptLen. nil means the whole prompt is one
	// request-private segment derived from seed, so requests without session
	// structure never alias each other's cache entries. The segments are the
	// whole per-request record of prompt content: FillPromptSeeds derives any
	// window's seeds from them on demand, so no per-token seed slice is ever
	// stored or materialized.
	PromptSegs []PromptSegment

	// Phase is the current lifecycle stage.
	Phase Phase
	// PrefillDone counts prompt tokens already processed (chunked prefill).
	PrefillDone int
	// Generated counts the committed output tokens (o_i).
	Generated int
	// Ctx is the decoding context: the window of committed tokens that
	// conditions speculation and verification. Only speculative systems read
	// token identity, so only their Commit extends it; CommitCount advances
	// Generated alone.
	Ctx lm.Context

	// AdmitTime is when the request was first scheduled (prefill start).
	AdmitTime float64
	// FirstDecodeTime is when the first decode step began: the reference
	// point for l_i in the paper's TPOT constraint. Negative until set.
	FirstDecodeTime float64
	// FirstTokenTime is when the first output token was committed (TTFT).
	FirstTokenTime float64
	// DoneTime is when generation finished.
	DoneTime float64

	// VerifySteps counts verification (or decode) iterations this request
	// participated in, and AcceptedTokens the tokens committed by them; their
	// ratio is the paper's "mean accepted tokens per verification step".
	VerifySteps    int
	AcceptedTokens int

	// PrefixChain memoizes the prompt's block fingerprints for prefix
	// caching (see kvcache.Chain); nil hashes every block on every walk. A
	// session points each turn at its one chain, valid because each turn's
	// prompt extends the last, and clears it once the turn finishes.
	PrefixChain *kvcache.Chain
	// DegradedFrom records the category a Degraded request arrived with, so
	// rollups can attribute the degradation to the original SLO class.
	DegradedFrom Category
	// Retries counts recovery re-dispatches after replica failures (see
	// ResetForRetry). TTFT and TPOT keep measuring from the original arrival,
	// so retried requests pay their lost work against their SLOs.
	Retries int
	// Degraded marks a request an overload admission gate relaxed to
	// best-effort service (see Degrade). It sits with the other flags, and
	// PrefixChain in the word it freed, so the struct keeps its size class
	// and the fields before it their offsets.
	Degraded bool
	// Recompute marks a request whose prompt KV was lost in a failed
	// prefill-to-decode transfer: the destination decode replica must admit it
	// despite remaining prefill work and recompute the prompt in place.
	Recompute bool
	// NoSpec disables speculative decoding for this request: engines skip
	// its draft-tree expansion, so verification commits exactly one token
	// per step (plain autoregressive progress).
	NoSpec bool
	// ReloadStall is the pending host-tier reload latency of this request's
	// cached prefix: set at admission when prefix blocks were matched on the
	// host offload tier, and consumed (added to the pass latency, then
	// zeroed) by the engine the first time the request joins a prefill pass
	// — the reload must complete before attention can read those blocks, so
	// the stall lands inside TTFT.
	ReloadStall float64
}

// PromptSegment is a run of prompt tokens with stable content identity: the
// i-th token of the segment has content seed Hash2(Seed, i), independent of
// where the segment sits in a particular request's prompt history. Session
// workloads reuse segments (the tenant's system prompt, earlier turns)
// across requests, which is what makes their KV prefixes shareable.
type PromptSegment struct {
	Seed uint64
	Len  int
}

// PromptTokens returns the prompt length in tokens. Together with
// FillPromptSeeds and PromptChain it is the prompt view prefix caching walks
// block by block (kvcache.Prompt).
func (r *Request) PromptTokens() int { return r.PromptLen }

// PromptChain returns the prompt's fingerprint memo, PrefixChain.
func (r *Request) PromptChain() *kvcache.Chain { return r.PrefixChain }

// FillPromptSeeds writes the content seeds of prompt positions
// [start, start+len(dst)) into dst without allocating: the position-stable
// token identities prefix caching hashes into block fingerprints. Position p
// inside segment s (at offset o from the segment's start) has seed
// Hash2(s.Seed, o); with no segments, and past the end of segments that sum
// short of PromptLen, it has the request-private seed Hash2(seed, p). Two
// requests agree on a position's seed iff their segment decompositions agree
// up to that position. The window must lie within [0, PromptLen).
func (r *Request) FillPromptSeeds(start int, dst []uint64) {
	if start < 0 || start+len(dst) > r.PromptLen {
		panic(fmt.Sprintf("request: prompt window [%d, %d) outside [0, %d)", start, start+len(dst), r.PromptLen))
	}
	pos, segStart := start, 0
	for _, seg := range r.PromptSegs {
		if len(dst) == 0 {
			return
		}
		segEnd := segStart + max(seg.Len, 0)
		for ; pos < segEnd && len(dst) > 0; pos++ {
			dst[0] = mathutil.Hash2(seg.Seed, uint64(pos-segStart))
			dst = dst[1:]
		}
		segStart = segEnd
	}
	for i := range dst {
		dst[i] = mathutil.Hash2(r.seed, uint64(pos+i))
	}
}

// New constructs a queued request with the mandatory fields set and
// bookkeeping initialized.
func New(id int, cat Category, slo float64, arrival float64, promptLen, maxNew int, seed uint64) *Request {
	r := &Request{
		ID: id, Category: cat, TPOTSLO: slo, Priority: int(cat),
		ArrivalTime: arrival, PromptLen: promptLen, MaxNewTokens: maxNew, seed: seed,
		Phase:           Queued,
		FirstDecodeTime: -1, FirstTokenTime: -1, DoneTime: -1, AdmitTime: -1,
	}
	r.Ctx = lm.Context{ReqSeed: seed}
	return r
}

// Clone returns a fresh Queued copy of the request's immutable trace fields
// (identity, SLO, arrival, lengths, seed) with lifecycle state reset, so the
// same trace can be replayed through multiple configurations without
// sharing mutable state. The copy has no PrefixChain: a chain is mutable
// state its walks extend.
func (r *Request) Clone() *Request {
	cp := New(r.ID, r.Category, r.TPOTSLO, r.ArrivalTime, r.PromptLen, r.MaxNewTokens, r.seed)
	cp.TTFTSLO = r.TTFTSLO
	cp.PromptSegs = r.PromptSegs // immutable once built; safe to share
	return cp
}

// Degrade relaxes the request to best-effort service: the admission gate's
// alternative to rejection under overload. The category becomes
// Summarization (the batch-tolerant class), the TPOT SLO loosens to at
// least bestEffort seconds per token, the TTFT deadline is waived, the
// priority falls to the batch class's, and speculation is disabled — the
// request decodes one guaranteed token per verification step, returning
// its share of the draft budget to requests still on contractual SLOs.
// Idempotent; DegradedFrom keeps the class the request arrived with.
func (r *Request) Degrade(bestEffort float64) {
	if r.Degraded {
		return
	}
	r.Degraded = true
	r.DegradedFrom = r.Category
	r.Category = Summarization
	r.Priority = int(Summarization)
	if bestEffort > r.TPOTSLO {
		r.TPOTSLO = bestEffort
	}
	r.TTFTSLO = 0
	r.NoSpec = true
}

// ResetForRetry rewinds a request lost to a replica failure so recovery can
// re-dispatch it from scratch: all computed state (prompt progress, output,
// decode context) and service timestamps reset, while identity, SLOs and —
// crucially — ArrivalTime survive, so the retried attempt's TTFT and TPOT
// are measured against the original deadline. Retries increments; degradation
// and preemption history are kept.
func (r *Request) ResetForRetry() {
	r.Phase = Queued
	r.PrefillDone = 0
	r.Generated = 0
	r.Ctx = lm.Context{ReqSeed: r.seed}
	r.AdmitTime = -1
	r.FirstDecodeTime = -1
	r.FirstTokenTime = -1
	r.DoneTime = -1
	r.VerifySteps = 0
	r.AcceptedTokens = 0
	r.Recompute = false
	r.ReloadStall = 0 // the freed allocation's pending reload died with it
	r.Retries++
}

// CloneAll clones a whole trace (see Clone).
func CloneAll(reqs []*Request) []*Request {
	cp := make([]*Request, len(reqs))
	for i, r := range reqs {
		cp[i] = r.Clone()
	}
	return cp
}

// Validate checks construction invariants.
func (r *Request) Validate() error {
	if r.TPOTSLO <= 0 {
		return fmt.Errorf("request %d: non-positive TPOT SLO %g", r.ID, r.TPOTSLO)
	}
	if r.PromptLen <= 0 {
		return fmt.Errorf("request %d: non-positive prompt length %d", r.ID, r.PromptLen)
	}
	if r.MaxNewTokens <= 0 {
		return fmt.Errorf("request %d: non-positive output length %d", r.ID, r.MaxNewTokens)
	}
	return nil
}

// OutputLen returns the number of committed output tokens (o_i).
func (r *Request) OutputLen() int { return r.Generated }

// Commit appends tokens produced by one decode/verify iteration ending at
// time now, and marks completion when the output budget is reached. The
// returned count is the number of tokens actually kept (clipped at
// MaxNewTokens). The input slice is not retained.
func (r *Request) Commit(tokens []lm.Token, now float64) int {
	kept := 0
	for _, t := range tokens {
		if r.Generated >= r.MaxNewTokens {
			break
		}
		r.Generated++
		r.Ctx = r.Ctx.Extend(t)
		kept++
	}
	r.finishCommit(kept, now)
	return kept
}

// CommitCount commits n tokens whose identity nothing reads: the
// non-speculative systems' commit, which advances the output count (clipped
// at MaxNewTokens) with the same bookkeeping as Commit but leaves Ctx alone.
func (r *Request) CommitCount(n int, now float64) int {
	kept := min(n, r.MaxNewTokens-r.Generated)
	r.Generated += kept
	r.finishCommit(kept, now)
	return kept
}

// finishCommit applies the bookkeeping shared by the commit methods. The
// completion stamp is taken once, on the commit that completes the output:
// a later commit to a done request keeps nothing and moves nothing.
func (r *Request) finishCommit(kept int, now float64) {
	if kept > 0 && r.FirstTokenTime < 0 {
		r.FirstTokenTime = now
	}
	r.AcceptedTokens += kept
	if r.Generated >= r.MaxNewTokens && r.Phase != Done {
		r.Phase = Done
		r.DoneTime = now
	}
}

// decodeLatency returns l_i: the time elapsed since the first decode step.
// Zero before decoding starts.
func (r *Request) decodeLatency(now float64) float64 {
	if r.FirstDecodeTime < 0 {
		return 0
	}
	return now - r.FirstDecodeTime
}

// MinAcceptForSLO computes A(r) from the paper:
//
//	A(r) = (l_i + t_spec) / t_TPOT − o_i
//
// the minimum number of tokens this iteration (of projected duration tspec)
// must commit for the request to remain on its TPOT SLO.
func (r *Request) MinAcceptForSLO(now, tspec float64) float64 {
	return r.MinAcceptFor(now, tspec, r.TPOTSLO)
}

// MinAcceptFor is MinAcceptForSLO against an arbitrary per-token target,
// letting schedulers aim below the contractual SLO (a safety margin that
// absorbs prefill interruptions between decode iterations).
func (r *Request) MinAcceptFor(now, tspec, target float64) float64 {
	return (r.decodeLatency(now)+tspec)/target - float64(r.OutputLen())
}

// AvgTPOT returns the request's average per-token latency measured from the
// first decode step, the quantity compared against the SLO. It returns 0
// until at least one token exists.
func (r *Request) AvgTPOT(now float64) float64 {
	if r.OutputLen() == 0 || r.FirstDecodeTime < 0 {
		return 0
	}
	end := now
	if r.DoneTime >= 0 {
		end = r.DoneTime
	}
	return (end - r.FirstDecodeTime) / float64(r.OutputLen())
}

// AttainedSLO reports whether a finished request met its TPOT SLO.
func (r *Request) AttainedSLO() bool {
	if r.Phase != Done || r.OutputLen() == 0 {
		return false
	}
	return r.AvgTPOT(r.DoneTime) <= r.TPOTSLO
}

// TTFT returns the time-to-first-token, or -1 if no token was produced.
func (r *Request) TTFT() float64 {
	if r.FirstTokenTime < 0 {
		return -1
	}
	return r.FirstTokenTime - r.ArrivalTime
}

// AttainedTTFT reports whether the request met its TTFT SLO. Requests
// without a TTFT SLO (TTFTSLO <= 0) trivially attain; requests that never
// produced a token do not.
func (r *Request) AttainedTTFT() bool {
	if r.TTFTSLO <= 0 {
		return true
	}
	t := r.TTFT()
	return t >= 0 && t <= r.TTFTSLO
}

// ContextLen returns the KV length if all prompt and output tokens are
// cached: prompt + generated.
func (r *Request) ContextLen() int { return r.PromptLen + r.Generated }

// RemainingPrefill returns prompt tokens not yet prefilled.
func (r *Request) RemainingPrefill() int { return r.PromptLen - r.PrefillDone }
