package cluster

import (
	"fmt"

	"adaserve/internal/request"
)

// Router assigns requests to replicas. The cluster driver calls Route for
// every trace arrival with the prefill-capable candidate set (all replicas
// in a colocated cluster), and RouteDecode for every prefill-to-decode
// migration with the decode-capable set. The returned index refers to the
// candidate slice it was given.
//
// Implementations must be deterministic: identical replica and router state
// must yield the same pick (ties break by lowest index or by an explicit
// rotating cursor, never by map order or randomness). Routers may keep
// internal state; a Router instance belongs to one Cluster.
type Router interface {
	// Name identifies the policy in reports (e.g. "slo-aware").
	Name() string
	// Route returns the index of the candidate replica that receives the
	// arrival r.
	Route(r *request.Request, replicas []*Replica) int
	// RouteDecode returns the index of the candidate replica that receives
	// the migrating, prefill-complete request r.
	RouteDecode(r *request.Request, replicas []*Replica) int
}

// prefillDispatch reports whether an arrival candidate set should be
// balanced on prompt backlog: true as soon as any candidate is a dedicated
// prefill replica (candidate sets are homogeneous in practice — all mixed or
// all prefill — since the driver filters by role).
func prefillDispatch(replicas []*Replica) bool {
	for _, rep := range replicas {
		if rep.Role() == RolePrefill {
			return true
		}
	}
	return false
}

// RoundRobin cycles through replicas in index order, ignoring load — the
// baseline policy every load balancer implements. Arrival and migration
// dispatch rotate independently.
type RoundRobin struct {
	next       int
	nextDecode int
}

// NewRoundRobin returns a round-robin router starting at replica 0.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Router.
func (rr *RoundRobin) Name() string { return "round-robin" }

// Route implements Router.
func (rr *RoundRobin) Route(_ *request.Request, replicas []*Replica) int {
	i := rr.next % len(replicas)
	rr.next = (rr.next + 1) % len(replicas)
	return i
}

// RouteDecode implements Router.
func (rr *RoundRobin) RouteDecode(_ *request.Request, replicas []*Replica) int {
	i := rr.nextDecode % len(replicas)
	rr.nextDecode = (rr.nextDecode + 1) % len(replicas)
	return i
}

// LeastLoaded routes every request to the replica with the least queued
// work, which corrects the load imbalance round-robin accumulates under
// heterogeneous request sizes. Arrivals dispatched among dedicated prefill
// replicas balance on queued prompt tokens (the only work such a replica
// does); otherwise — and for every migration — the signal is total queued
// tokens (outstanding prefill + ungenerated output).
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Route implements Router.
func (LeastLoaded) Route(_ *request.Request, replicas []*Replica) int {
	load := (*Replica).QueuedTokens
	if prefillDispatch(replicas) {
		load = (*Replica).QueuedPrefillTokens
	}
	best, bestTokens := 0, load(replicas[0])
	for i, rep := range replicas[1:] {
		if t := load(rep); t < bestTokens {
			best, bestTokens = i+1, t
		}
	}
	return best
}

// RouteDecode implements Router.
func (LeastLoaded) RouteDecode(_ *request.Request, replicas []*Replica) int {
	best, bestTokens := 0, replicas[0].QueuedTokens()
	for i, rep := range replicas[1:] {
		if t := rep.QueuedTokens(); t < bestTokens {
			best, bestTokens = i+1, t
		}
	}
	return best
}

// defaultTightSLO is the TPOT-SLO cutoff (seconds) below which sloAware
// treats a request as latency-critical. 100 ms sits between the chatbot
// SLO (50 ms) and the summarization SLO (150 ms) of Table 2, so the
// default splits the paper's workload into {coding, chat} vs
// {summarization}.
const defaultTightSLO = 0.100

// sloAware routes each SLO class separately and adapts to urgent pressure.
//
// In steady state both classes balance independently: a latency-critical
// request goes to the least-contended replica (fewest resident
// latency-critical requests, so tight-TPOT requests avoid diluting each
// other's share of the per-iteration speculation budget), and a
// batch-tolerant request fills the replica with the least batch-tolerant
// work. The contention signal is resident requests, not queued tokens:
// every resident request claims a budget share for its whole decode
// residence. Ties rotate through a per-class cursor (degrading to
// per-class round-robin on equally contended replicas) rather than
// dog-piling the lowest index.
//
// During overload bursts (mean resident tight requests past
// defaultPressureThreshold, clusters of 3+), the policy flips to a
// sacrificial partition: batch-tolerant work consolidates onto an "island"
// replica — the one already holding the most of it — while new tight
// requests exclude the island. Consolidation matters because the engine
// co-batches prefill with verification: a multi-thousand-token
// summarization prompt inflates every co-resident request's iteration
// times, so spreading such work "fairly" during a burst poisons tight
// requests on every replica, while packing it keeps the remaining replicas
// clean for urgent traffic — the relaxed SLOs absorb the co-batching. A
// headcount cap (defaultConsolidateFactor × the cluster-mean residency)
// bounds the sacrifice; past it, relaxed work spreads again.
//
// Role-awareness: in a disaggregated cluster the per-class residency logic
// owns decode dispatch (migrations), exactly as it owns placement in a
// colocated cluster — residency is a decode-budget signal. Arrival dispatch
// among dedicated prefill replicas instead balances queued prompt tokens
// (prefill is a throughput stage; TTFT is served by draining the shortest
// prompt backlog), with the rotating-cursor tie-break.
type sloAware struct {
	tightCursor, relaxedCursor, prefillCursor int
}

// defaultConsolidateFactor is the relaxed-consolidation headroom: a replica
// may absorb batch-tolerant work until it holds twice the cluster-mean
// residency, plus constant slack for cold starts.
const defaultConsolidateFactor = 2.0

// defaultPressureThreshold is the urgent-pressure trigger for relaxed
// consolidation, in mean resident tight requests per replica: steady state
// at the evaluated loads keeps a handful of tight requests resident per
// replica, while overload bursts push well past ten.
const defaultPressureThreshold = 8

// Name implements Router.
func (s *sloAware) Name() string { return "slo-aware" }

// residency is one replica's (tight, relaxed) resident-request counts,
// snapshotted once per routing decision.
type residency struct {
	tight, relaxed int
}

// Route implements Router.
func (s *sloAware) Route(r *request.Request, replicas []*Replica) int {
	if prefillDispatch(replicas) {
		return s.routePrefill(replicas)
	}
	return s.routeByResidency(r, replicas)
}

// RouteDecode implements Router.
func (s *sloAware) RouteDecode(r *request.Request, replicas []*Replica) int {
	return s.routeByResidency(r, replicas)
}

// routeByResidency is the per-class residency policy shared by colocated
// arrival dispatch and disaggregated decode dispatch.
func (s *sloAware) routeByResidency(r *request.Request, replicas []*Replica) int {
	// Snapshot every replica's residency once; island/routeTight/
	// routeRelaxed all read this snapshot rather than rescanning pools.
	res := make([]residency, len(replicas))
	for i, rep := range replicas {
		t, x := rep.activeRequests(defaultTightSLO)
		res[i] = residency{tight: t, relaxed: x}
	}
	island := s.island(res)
	if r.TPOTSLO <= defaultTightSLO {
		return s.routeTight(res, island)
	}
	return s.routeRelaxed(res, island)
}

// routePrefill balances arrivals over dedicated prefill replicas by queued
// prompt tokens, rotating the tie-break cursor so equally idle replicas
// share cold starts.
func (s *sloAware) routePrefill(replicas []*Replica) int {
	best, bestLoad := -1, 0
	for off := 0; off < len(replicas); off++ {
		i := (s.prefillCursor + off) % len(replicas)
		if load := replicas[i].QueuedPrefillTokens(); best < 0 || load < bestLoad {
			best, bestLoad = i, load
		}
	}
	s.prefillCursor = (best + 1) % len(replicas)
	return best
}

// island selects the sacrificial replica that absorbs batch-tolerant work
// while urgent pressure is high: the one already holding the most relaxed
// requests (ties prefer fewer resident tight requests, then the lowest
// index, so the target stays stable). It returns -1 — both classes spread
// — when pressure is low (mean resident tight requests per replica under
// the threshold) or the cluster is too small to afford a sacrifice:
// islanding one of two replicas halves urgent capacity exactly when the
// cluster is overloaded, so it needs at least three.
func (s *sloAware) island(res []residency) int {
	if len(res) < 3 {
		return -1
	}
	tightTotal := 0
	for _, r := range res {
		tightTotal += r.tight
	}
	if float64(tightTotal)/float64(len(res)) < defaultPressureThreshold {
		return -1
	}
	best, bestRelaxed, bestTight := -1, 0, 0
	for i, r := range res {
		if best < 0 || r.relaxed > bestRelaxed || (r.relaxed == bestRelaxed && r.tight < bestTight) {
			best, bestRelaxed, bestTight = i, r.relaxed, r.tight
		}
	}
	return best
}

// routeTight picks the replica with the fewest resident latency-critical
// requests, tie-breaking on total residency (avoiding replicas thick with
// relaxed work), then on the rotating class cursor. Under urgent pressure
// the island is excluded: keeping new tight requests off the sacrificial
// replica is what preserves clean replicas for urgent traffic.
func (s *sloAware) routeTight(res []residency, island int) int {
	best, bestTight, bestTotal := -1, 0, 0
	for off := 0; off < len(res); off++ {
		i := (s.tightCursor + off) % len(res)
		if i == island {
			continue
		}
		tight, total := res[i].tight, res[i].tight+res[i].relaxed
		if best < 0 || tight < bestTight || (tight == bestTight && total < bestTotal) {
			best, bestTight, bestTotal = i, tight, total
		}
	}
	s.tightCursor = (best + 1) % len(res)
	return best
}

// routeRelaxed places batch-tolerant work. While urgent pressure is low
// (no island) it spreads by least relaxed residency with the rotating
// cursor — with budget headroom everywhere, filling all replicas maximizes
// throughput. Under urgent pressure it packs onto the island, bounded by
// the consolidation cap; past the cap it spreads again.
func (s *sloAware) routeRelaxed(res []residency, island int) int {
	if island >= 0 {
		total := 0
		for _, r := range res {
			total += r.tight + r.relaxed
		}
		if islandTotal := res[island].tight + res[island].relaxed; float64(islandTotal) < defaultConsolidateFactor*float64(total)/float64(len(res))+4 {
			return island
		}
	}
	// Low pressure (or the island is saturated): spread by least relaxed
	// residency.
	best, bestRelaxed := -1, 0
	for off := 0; off < len(res); off++ {
		i := (s.relaxedCursor + off) % len(res)
		if best < 0 || res[i].relaxed < bestRelaxed {
			best, bestRelaxed = i, res[i].relaxed
		}
	}
	s.relaxedCursor = (best + 1) % len(res)
	return best
}

// PrefixProber is implemented by serving systems whose KV allocator can
// report how many of a request's prompt tokens it already holds cached
// (sched systems promote it from their shared base). The probe must be
// read-only and free of side effects on cache state.
type PrefixProber interface {
	PrefixCachedTokens(r *request.Request) int
}

// PrefixAffinity routes each arrival to the replica holding the longest
// cached prefix of its prompt, so sessions with shared system prompts and
// follow-up turns land where their KV already lives and skip that prefill
// entirely. Replicas tied on cached length — in particular the common cold
// case where nobody holds anything — fall back to least-loaded dispatch, and
// replicas whose systems expose no prefix cache probe as 0, so the policy
// degrades cleanly to LeastLoaded on a prefix-disabled cluster and under
// fault/drain (the driver pre-filters the candidate set). Migrations are
// pure load balancing: the decode side gains nothing from prefix locality,
// its KV moves with it.
type PrefixAffinity struct{}

// Name implements Router.
func (PrefixAffinity) Name() string { return "prefix-affinity" }

// Route implements Router. One allocation-free pass keeps the best replica
// so far: the longest cached prefix, then the least load — affinity must not
// dog-pile one replica once the hot prefix is resident on several — then
// the lowest index.
func (PrefixAffinity) Route(r *request.Request, replicas []*Replica) int {
	load := (*Replica).QueuedTokens
	if prefillDispatch(replicas) {
		load = (*Replica).QueuedPrefillTokens
	}
	best, bestCached, bestLoad := -1, 0, 0
	for i, rep := range replicas {
		p, ok := rep.System().(PrefixProber)
		if !ok {
			continue
		}
		c := p.PrefixCachedTokens(r)
		if c == 0 || c < bestCached {
			continue
		}
		if t := load(rep); c > bestCached || t < bestLoad {
			best, bestCached, bestLoad = i, c, t
		}
	}
	if best < 0 {
		return LeastLoaded{}.Route(r, replicas)
	}
	return best
}

// RouteDecode implements Router.
func (PrefixAffinity) RouteDecode(r *request.Request, replicas []*Replica) int {
	return LeastLoaded{}.RouteDecode(r, replicas)
}

// RouterNames lists the load-signal policies the standard experiment sweeps
// iterate (prefix-affinity is excluded: it only differentiates itself on
// session workloads with a prefix cache, which have their own sweep — it is
// still accepted by NewRouter).
func RouterNames() []string { return []string{"round-robin", "least-loaded", "slo-aware"} }

// NewRouter builds a built-in router by name.
func NewRouter(name string) (Router, error) {
	switch name {
	case "round-robin":
		return NewRoundRobin(), nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "slo-aware":
		return &sloAware{}, nil
	case "prefix-affinity":
		return PrefixAffinity{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown router %q (have round-robin, least-loaded, slo-aware, prefix-affinity)", name)
	}
}
