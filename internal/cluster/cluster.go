// Package cluster simulates a multi-replica serving deployment: N
// independently clocked replicas — each a complete serving system from
// internal/sched with its own engine, KV cache and request pool — fed from
// one global arrival stream by a pluggable Router.
//
// A Cluster is a serve.Backend: the unified event-driven driver in
// internal/serve advances the replicas at per-replica iteration granularity.
// An arrival is routed once every replica that still has runnable work has
// simulated past the arrival instant, so routing observes each replica's
// most recent iteration-boundary state — the same boundary-visibility rule
// the single-replica driver uses, and the (slightly stale) load signal a
// production router in front of independently batching replicas would have.
// All tie-breaking is by lowest replica index, so runs are deterministic
// under a fixed seed. A run hands the Cluster to serve.NewServer (every
// experiments.RunSpec with a fleet does) and assembles metrics with
// Results.
//
// Replicas optionally carry a role. A colocated cluster (every replica
// RoleMixed) serves each request start-to-finish where it was routed. A
// disaggregated cluster splits the fleet into prefill and decode instances:
// arrivals are dispatched among prefill-capable replicas, and when a
// request's prompt completes on a RolePrefill replica the cluster migrates it
// — pricing the prompt-KV handoff with a gpu.KVTransfer model — to a
// decode-capable replica chosen by the router. The transfer latency lands on
// the request's clock between prefill completion and decode eligibility,
// exactly where a real disaggregated deployment pays it (inside TTFT, ahead
// of the first decode token). Migrations ride the driver's delivery queue,
// interleaved with arrivals in global (time, request ID) order, under the
// same boundary-visibility rule.
package cluster

import (
	"fmt"
	"strconv"
	"strings"

	"adaserve/internal/gpu"
	"adaserve/internal/kvcache"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// Role restricts which lifecycle stage a replica serves.
type Role int

const (
	// RoleMixed serves requests start to finish (colocated).
	RoleMixed Role = iota
	// RolePrefill serves only prompt processing; completed prefills migrate
	// to a decode-capable replica.
	RolePrefill
	// RoleDecode serves only decoding of migrated, prefill-complete
	// requests.
	RoleDecode
)

// String implements fmt.Stringer.
func (r Role) String() string {
	switch r {
	case RoleMixed:
		return "mixed"
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Mode returns the sched admission mode matching the role, for building
// role-restricted replicas.
func (r Role) Mode() sched.Mode {
	switch r {
	case RolePrefill:
		return sched.ModePrefill
	case RoleDecode:
		return sched.ModeDecode
	default:
		return sched.ModeMixed
	}
}

// ParseSplit parses a role-split spec like "2P2D" (two prefill plus two
// decode replicas) into the per-replica role list, prefill replicas first.
// "colocated" or "mixed" followed by a count ("mixed4") yields an all-mixed
// cluster of that size.
func ParseSplit(spec string) ([]Role, error) {
	s := strings.ToUpper(strings.TrimSpace(spec))
	if rest, ok := strings.CutPrefix(s, "MIXED"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("cluster: bad mixed split %q (want e.g. mixed4)", spec)
		}
		return make([]Role, n), nil
	}
	p := strings.IndexByte(s, 'P')
	d := strings.IndexByte(s, 'D')
	if p < 1 || d != len(s)-1 || d <= p {
		return nil, fmt.Errorf("cluster: bad role split %q (want e.g. 2P2D or mixed4)", spec)
	}
	np, err1 := strconv.Atoi(s[:p])
	nd, err2 := strconv.Atoi(s[p+1 : d])
	if err1 != nil || err2 != nil || np < 1 || nd < 1 {
		return nil, fmt.Errorf("cluster: bad role split %q (want e.g. 2P2D)", spec)
	}
	roles := make([]Role, 0, np+nd)
	for i := 0; i < np; i++ {
		roles = append(roles, RolePrefill)
	}
	for i := 0; i < nd; i++ {
		roles = append(roles, RoleDecode)
	}
	return roles, nil
}

// splitName renders a role list in ParseSplit's notation ("2P2D",
// "colocated" when every replica is mixed).
func splitName(roles []Role) string {
	np, nd, nm := 0, 0, 0
	for _, r := range roles {
		switch r {
		case RolePrefill:
			np++
		case RoleDecode:
			nd++
		default:
			nm++
		}
	}
	if np == 0 && nd == 0 {
		return "colocated"
	}
	name := fmt.Sprintf("%dP%dD", np, nd)
	if nm > 0 {
		name += fmt.Sprintf("+%dM", nm)
	}
	return name
}

// Replica is one serving instance inside a cluster: a serve.Instance (the
// driver-owned clock and iteration accounting around a sched.System) plus
// the cluster-side placement state — its role and the requests routed or
// migrated to it.
type Replica struct {
	inst *serve.Instance
	role Role
	// routed holds arrivals dispatched here (the prefill stage for
	// role-restricted clusters); migrated holds requests delivered by
	// prefill-to-decode migration or drain migration. pendingDeliveries
	// counts in-flight deliveries targeting this replica — a replica with
	// inbound work cannot be drained.
	routed            []*request.Request
	migrated          []*request.Request
	pendingDeliveries int

	// Lifecycle state (see lifecycle.go). Static clusters leave every
	// replica in the zero state, StateActive, forever.
	state State
	// readyAt is the provisioning-complete instant (valid while
	// StateProvisioning; the activation delivery checks it to ignore stale
	// deliveries after a canceled-and-reprovisioned cycle).
	readyAt float64
	// drainedAt is the drain-decision instant (valid while StateDraining).
	drainedAt float64
	// activeSince starts the current consumption span; consumed accumulates
	// completed spans (replica-seconds billing).
	activeSince float64
	consumed    float64
}

// ID returns the replica's index within the cluster.
func (rep *Replica) ID() int { return rep.inst.ID() }

// Role returns the replica's serving role.
func (rep *Replica) Role() Role { return rep.role }

// System returns the wrapped serving system.
func (rep *Replica) System() sched.System { return rep.inst.System() }

// Instance returns the replica's driver-side serving instance.
func (rep *Replica) Instance() *serve.Instance { return rep.inst }

// Clock returns the replica's local simulated time: the end of its last
// executed iteration (or the last arrival it received while idle).
func (rep *Replica) Clock() float64 { return rep.inst.Clock() }

// served are the requests whose final stage ran (or will run) on this
// replica: migrations for a decode replica, arrivals for a colocated one —
// and both for a mixed replica inside a hybrid fleet, which decodes its own
// arrivals plus any migrations delivered to it.
func (rep *Replica) served() []*request.Request {
	switch {
	case rep.role == RoleDecode:
		return rep.migrated
	case len(rep.migrated) == 0:
		return rep.routed
	default:
		out := make([]*request.Request, 0, len(rep.routed)+len(rep.migrated))
		out = append(out, rep.routed...)
		return append(out, rep.migrated...)
	}
}

// remainingTokens is a request's outstanding work: prompt tokens not yet
// prefilled plus output tokens not yet generated.
func remainingTokens(r *request.Request) int {
	if r.Phase == request.Done {
		return 0
	}
	return r.RemainingPrefill() + r.MaxNewTokens - r.OutputLen()
}

// QueuedTokens returns the replica's outstanding work in tokens, summed over
// its waiting and running requests. This is the load signal the
// least-loaded router balances on (the SLO-aware router balances resident
// headcount instead — see activeRequests).
func (rep *Replica) QueuedTokens() int {
	p := rep.System().Pool()
	n := 0
	for _, r := range p.Waiting() {
		n += remainingTokens(r)
	}
	for _, r := range p.Running() {
		n += remainingTokens(r)
	}
	return n
}

// QueuedPrefillTokens returns the replica's outstanding prompt tokens: the
// backlog a prefill-role replica must chew through before newly routed
// prompts start, and therefore the dispatch signal role-aware routers
// balance prefill traffic on.
func (rep *Replica) QueuedPrefillTokens() int {
	p := rep.System().Pool()
	n := 0
	for _, r := range p.Waiting() {
		n += r.RemainingPrefill()
	}
	for _, r := range p.Running() {
		n += r.RemainingPrefill()
	}
	return n
}

// activeRequests counts the replica's resident (waiting or running,
// unfinished) requests split into latency-critical (TPOT SLO <= cutoff) and
// batch-tolerant shares. Headcount — not queued tokens — is the contention
// signal the SLO-aware router balances: every resident request claims a
// share of each iteration's verification budget for its whole decode
// residence, so headcount is what dilutes a tight request's token
// allowance.
func (rep *Replica) activeRequests(cutoff float64) (tight, relaxed int) {
	p := rep.System().Pool()
	count := func(r *request.Request) {
		if r.Phase == request.Done {
			return
		}
		if r.TPOTSLO <= cutoff {
			tight++
		} else {
			relaxed++
		}
	}
	for _, r := range p.Waiting() {
		count(r)
	}
	for _, r := range p.Running() {
		count(r)
	}
	return tight, relaxed
}

// Cluster is a set of replicas behind a router. It implements
// serve.Backend, so the unified driver can advance it; like a sched.System,
// a Cluster is single-use: build a fresh one per run.
type Cluster struct {
	replicas []*Replica
	insts    []*serve.Instance
	router   Router
	transfer gpu.KVTransfer
	disagg   bool

	// prefillCap and decodeCap are the role-filtered candidate sets (== all
	// replicas for a colocated cluster). routablePrefill/routableDecode are
	// the state-filtered subsets handed to the router, in capability order,
	// rebuilt on every state transition.
	prefillCap      []*Replica
	decodeCap       []*Replica
	routablePrefill []*Replica
	routableDecode  []*Replica

	// admitted records every dispatched arrival in admission order: the
	// request population Results aggregates over when the caller has none
	// (open-loop runs) — kept cluster-side because drain migration moves
	// requests between replicas' placement lists.
	admitted []*request.Request

	// Elastic-lifecycle state (see lifecycle.go).
	elastic         bool
	coldStart       float64
	scaleSeq        int
	ups, downs      int
	drainMigrations int
	peakFleet       int
	minFleet        int

	// Fault-injection state (see faults.go).
	linkWindows   []LinkWindow
	linkFallbacks int
	linkDegraded  int

	stats metrics.TransferStats
}

// New builds a colocated cluster (every replica RoleMixed) from
// ready-to-run serving systems and a router.
func New(systems []sched.System, router Router) (*Cluster, error) {
	return NewWithRoles(systems, nil, router, gpu.KVTransfer{})
}

// NewWithRoles builds a cluster with explicit per-replica roles. roles nil
// means all-mixed (colocated). When any replica is RolePrefill the transfer
// model prices the prefill-to-decode handoff and must validate; a
// disaggregated cluster additionally needs at least one prefill-capable and
// one decode-capable replica.
func NewWithRoles(systems []sched.System, roles []Role, router Router, transfer gpu.KVTransfer) (*Cluster, error) {
	if len(systems) == 0 {
		return nil, fmt.Errorf("cluster: no replicas")
	}
	if router == nil {
		return nil, fmt.Errorf("cluster: router required")
	}
	if roles == nil {
		roles = make([]Role, len(systems))
	}
	if len(roles) != len(systems) {
		return nil, fmt.Errorf("cluster: %d roles for %d replicas", len(roles), len(systems))
	}
	c := &Cluster{router: router, transfer: transfer}
	for i, sys := range systems {
		if sys == nil {
			return nil, fmt.Errorf("cluster: replica %d is nil", i)
		}
		rep := &Replica{inst: serve.NewInstance(i, sys), role: roles[i]}
		c.replicas = append(c.replicas, rep)
		c.insts = append(c.insts, rep.inst)
		if roles[i] != RoleDecode {
			c.prefillCap = append(c.prefillCap, rep)
		}
		if roles[i] != RolePrefill {
			c.decodeCap = append(c.decodeCap, rep)
		}
		if roles[i] == RolePrefill {
			c.disagg = true
		}
	}
	if len(c.prefillCap) == 0 {
		return nil, fmt.Errorf("cluster: no prefill-capable replica")
	}
	if len(c.decodeCap) == 0 {
		return nil, fmt.Errorf("cluster: no decode-capable replica")
	}
	if c.disagg {
		if err := transfer.Validate(); err != nil {
			return nil, fmt.Errorf("cluster: KV-transfer model: %w", err)
		}
	}
	c.routablePrefill = make([]*Replica, 0, len(c.prefillCap))
	c.routableDecode = make([]*Replica, 0, len(c.decodeCap))
	c.rebuildRoutable()
	c.peakFleet = len(c.replicas)
	c.minFleet = len(c.replicas)
	return c, nil
}

// Replicas returns the cluster's replicas in ID order.
func (c *Cluster) Replicas() []*Replica { return c.replicas }

// Size returns the number of replicas.
func (c *Cluster) Size() int { return len(c.replicas) }

// Roles returns the per-replica roles in ID order.
func (c *Cluster) Roles() []Role {
	roles := make([]Role, len(c.replicas))
	for i, rep := range c.replicas {
		roles[i] = rep.role
	}
	return roles
}

// name identifies the cluster configuration in reports.
func (c *Cluster) name() string {
	base := fmt.Sprintf("%s x%d [%s]", c.replicas[0].System().Name(), len(c.replicas), c.router.Name())
	if split := splitName(c.Roles()); split != "colocated" {
		base += " " + split
	}
	return base
}

// Instances implements serve.Backend.
func (c *Cluster) Instances() []*serve.Instance { return c.insts }

// Dispatch implements serve.Backend: the router places the arrival among
// active prefill-capable replicas (provisioning and draining replicas take
// no new admissions).
func (c *Cluster) Dispatch(r *request.Request) (*serve.Instance, error) {
	cands := c.routablePrefill
	if len(cands) == 0 {
		return nil, fmt.Errorf("cluster: no active prefill-capable replica: %w", serve.ErrNoReplica)
	}
	idx := c.router.Route(r, cands)
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("cluster: router %s picked replica %d of %d",
			c.router.Name(), idx, len(cands))
	}
	rep := cands[idx]
	rep.inst.BumpClock(r.ArrivalTime)
	rep.System().Pool().Enqueue(r)
	rep.routed = append(rep.routed, r)
	c.admitted = append(c.admitted, r)
	return rep.inst, nil
}

// AfterIterate implements serve.Backend: it migrates prefill-complete
// requests off a prefill-role replica. Every running request that flipped to
// the Decoding phase during the last iteration leaves the replica (KV freed
// at the source), is priced through the transfer model, and is dispatched to
// a decode-capable replica by the router. The request rides the driver's
// delivery queue until the target's clock reaches the ready instant. Pool
// order makes the migration order deterministic.
func (c *Cluster) AfterIterate(in *serve.Instance, q *serve.Queue) error {
	rep := c.replicas[in.ID()]
	if c.elastic {
		c.sweepDrained()
	}
	if rep.role != RolePrefill {
		return nil
	}
	var done []*request.Request
	for _, r := range rep.System().Pool().Running() {
		if r.Phase == request.Decoding {
			done = append(done, r)
		}
	}
	for _, r := range done {
		rep.System().Pool().Remove(r)
		rep.System().Release(r)
		cands := c.routableDecode
		if len(cands) == 0 {
			return fmt.Errorf("cluster: no active decode-capable replica")
		}
		idx := c.router.RouteDecode(r, cands)
		if idx < 0 || idx >= len(cands) {
			return fmt.Errorf("cluster: router %s picked replica %d of %d decode candidates",
				c.router.Name(), idx, len(cands))
		}
		lat := c.transfer.Latency(r.PromptLen)
		failed := false
		if len(c.linkWindows) > 0 {
			// An armed link fault may degrade the transfer (latency factor)
			// or lose it in flight: the request still pays the attempt's
			// wire time — the failure is detected at the destination — but
			// arrives without its prompt KV and recomputes the prefill there.
			lat, failed = c.linkFault(rep.Clock(), r.ID, lat)
		}
		c.stats.Count++
		c.stats.Bytes += c.transfer.Bytes(r.PromptLen)
		c.stats.Time += lat
		if failed {
			r.Phase = request.Queued
			r.PrefillDone = 0
			r.Recompute = true // decode-mode admission accepts the re-prefill
		} else {
			r.Phase = request.Preempted // re-enqueues as resumable, skipping prefill
		}
		req, target, ready := r, cands[idx], rep.Clock()+lat
		target.pendingDeliveries++
		q.ScheduleMigration(ready, req.ID, serve.Migration{
			Req: req, From: rep.inst.ID(), To: target.inst.ID(),
			Depart: rep.Clock(), Bytes: c.transfer.Bytes(req.PromptLen),
		}, func() { c.deliver(req, target, ready) })
	}
	return nil
}

// deliver lands an arrived migration on its decode replica, bumping an idle
// target's clock to the transfer-completion instant. A delivery whose
// target crashed while the transfer was in flight is re-routed to a
// surviving decode-capable replica (router exclusion of failed replicas
// covers in-flight work, not just new dispatches); with none left it lands
// on the failed replica and is lost with it.
func (c *Cluster) deliver(r *request.Request, target *Replica, ready float64) {
	target.pendingDeliveries--
	if target.state == StateFailed && len(c.routableDecode) > 0 {
		target = c.routableDecode[c.router.RouteDecode(r, c.routableDecode)]
	}
	target.inst.BumpClock(ready)
	target.System().Pool().Enqueue(r)
	target.migrated = append(target.migrated, r)
}

// deliverRouted lands a drain-migrated, still-to-prefill request on its new
// replica as a routed arrival (the prefill stage restarts there, so the
// target owns the request's placement stats). Failed targets re-route like
// deliver.
func (c *Cluster) deliverRouted(r *request.Request, target *Replica, ready float64) {
	target.pendingDeliveries--
	if target.state == StateFailed && len(c.routablePrefill) > 0 {
		target = c.routablePrefill[c.router.Route(r, c.routablePrefill)]
	}
	target.inst.BumpClock(ready)
	target.System().Pool().Enqueue(r)
	target.routed = append(target.routed, r)
}

// ReplicaResult reports one replica's share of a completed run.
type ReplicaResult struct {
	// Summary covers the requests this replica served: arrivals routed to
	// it, or — for a decode-role replica — the requests migrated to it.
	Summary *metrics.Summary
	// Iterations is the replica's scheduling-iteration count.
	Iterations int
	// EndTime is the replica's final local clock.
	EndTime float64
}

// Result reports a completed cluster run.
type Result struct {
	// Summary is the cluster-aggregate plus per-replica metric summaries.
	Summary *metrics.ClusterSummary
	// PerReplica holds per-replica simulation results in ID order.
	PerReplica []ReplicaResult
	// Iterations is the total iteration count across replicas.
	Iterations int
	// EndTime is the simulated completion time of the last request on any
	// replica.
	EndTime float64
}

// Results assembles the cluster result of a completed serve.Server run
// with the cluster as backend. reqs is the request population the
// aggregate summarizes over — pass the trace for closed replay, so the
// aggregate covers it in trace order; pass nil when the population is not
// known up front (open-loop or programmatic sources) to aggregate over
// every request dispatched into the cluster, in admission order.
func (c *Cluster) Results(rr *serve.Result, reqs []*request.Request) *Result {
	if reqs == nil {
		reqs = c.admitted
	}
	res := &Result{Iterations: rr.Iterations, EndTime: rr.EndTime}
	var total metrics.Breakdown
	var perReplica []*metrics.Summary
	for _, rep := range c.replicas {
		b := rep.inst.Breakdown()
		total.Add(b)
		name := fmt.Sprintf("replica %d", rep.ID())
		if rep.role != RoleMixed {
			name = fmt.Sprintf("replica %d (%s)", rep.ID(), rep.role)
		}
		sum := metrics.Summarize(name, rep.served(), b)
		perReplica = append(perReplica, sum)
		res.PerReplica = append(res.PerReplica, ReplicaResult{
			Summary:    sum,
			Iterations: rep.inst.Iterations(),
			EndTime:    rep.Clock(),
		})
	}
	as := c.lifecycleStats(rr.EndTime)
	for _, r := range reqs {
		if r.Phase != request.Done {
			continue
		}
		as.Finished++
		if r.AttainedSLO() {
			as.Attained++
			as.GoodTokens += r.OutputLen()
		}
	}
	res.Summary = &metrics.ClusterSummary{
		Aggregate: metrics.Summarize(c.name(), reqs, total),
		Replicas:  perReplica,
		Roles:     c.roleStats(),
		Transfer:  c.stats,
		Autoscale: &as,
		Prefix:    PrefixSummary(c.systems()...),
	}
	return res
}

// PrefixSummary sums the shared-prefix cache counters of the systems that
// run with prefix caching enabled; nil when none does.
func PrefixSummary(systems ...sched.System) *metrics.PrefixSummary {
	var out *metrics.PrefixSummary
	for _, sys := range systems {
		p, ok := sys.(interface {
			KVPrefixStats() (kvcache.PrefixStats, bool)
		})
		if !ok {
			continue
		}
		st, enabled := p.KVPrefixStats()
		if !enabled {
			continue
		}
		if out == nil {
			out = &metrics.PrefixSummary{}
		}
		out.Add(metrics.PrefixSummary{
			Lookups:         st.Lookups,
			Hits:            st.Hits,
			HitTokens:       st.HitTokens,
			Evictions:       st.Evictions,
			HostEvictions:   st.HostEvictions,
			Reloads:         st.Reloads,
			ReloadedTokens:  st.ReloadedTokens,
			ReloadStallTime: st.ReloadStall,
		})
	}
	return out
}

// systems returns the replicas' serving systems in ID order.
func (c *Cluster) systems() []sched.System {
	out := make([]sched.System, len(c.replicas))
	for i, rep := range c.replicas {
		out[i] = rep.System()
	}
	return out
}

// roleStats aggregates TTFT/TPOT attainment by replica role: TTFT over the
// requests a role prefilled, TPOT over the requests it decoded (a mixed
// replica owns both stages of its routed requests).
func (c *Cluster) roleStats() []metrics.RoleStats {
	var out []metrics.RoleStats
	for _, role := range []Role{RolePrefill, RoleDecode, RoleMixed} {
		rs := metrics.RoleStats{Role: role.String()}
		for _, rep := range c.replicas {
			if rep.role != role {
				continue
			}
			rs.Replicas++
			if role != RoleDecode {
				rs.PrefillRequests += len(rep.routed)
				for _, r := range rep.routed {
					if r.AttainedTTFT() {
						rs.TTFTAttained++
					}
				}
			}
			if role != RolePrefill {
				for _, r := range rep.served() {
					rs.DecodeRequests++
					if r.AttainedSLO() {
						rs.TPOTAttained++
					}
				}
			}
		}
		if rs.Replicas > 0 {
			out = append(out, rs)
		}
	}
	return out
}
