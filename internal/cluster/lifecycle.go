package cluster

import (
	"fmt"

	"adaserve/internal/gpu"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// State is a replica's lifecycle stage in an elastic cluster. A static
// cluster keeps every replica in the zero state, StateActive, so the state
// machine is invisible to non-autoscaled runs.
//
// Transitions (all at deterministic event-time instants):
//
//	stateStopped ──ScaleUp──▶ StateProvisioning ──cold start elapses──▶ StateActive
//	StateProvisioning ──ScaleDown (cancel)──▶ stateStopped
//	StateActive ──ScaleDown──▶ StateDraining ──pool drains──▶ stateStopped
//	any non-stopped ──Fail (injected crash)──▶ StateFailed
//	StateFailed ──Recover──▶ StateActive (static) / stateStopped (elastic)
//
// Provisioning models model-load plus KV allocation: the replica consumes
// capacity (it is billed) but accepts no work until its cold start elapses.
// Draining takes no new admissions; its waiting requests migrate to active
// replicas over the KV-transfer path and its running requests finish in
// place. Failure (see faults.go) is abrupt: the replica halts mid-flight,
// freezing its resident requests and losing its KV; it is unbilled while
// down (the outage is accounted as unavailability, not capacity), and an
// elastic fleet's recovery returns it as spare capacity — so a crash looks
// like an organic scale-down to the autoscale controller, which provisions
// replacement capacity through the ordinary ScaleUp path.
type State int

const (
	// StateActive serves traffic (the zero value: static replicas are
	// always active).
	StateActive State = iota
	// StateProvisioning is spinning up: billed, not yet routable.
	StateProvisioning
	// StateDraining takes no new admissions; in-flight work finishes or
	// migrates, then the replica stops.
	StateDraining
	// stateStopped is spare capacity: unbilled, not routable.
	stateStopped
	// StateFailed is crashed: halted abruptly by fault injection, resident
	// requests frozen (lost once detection harvests them), KV gone. Unbilled
	// and not routable until recovery.
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateProvisioning:
		return "provisioning"
	case StateDraining:
		return "draining"
	case stateStopped:
		return "stopped"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// scaleDeliveryBase offsets activation-delivery IDs past any request ID, so
// an activation landing at the same instant as a request migration is
// ordered after it — deterministically — in the driver's delivery queue.
const scaleDeliveryBase = 1 << 30

// ElasticOptions configures the replica lifecycle of an autoscaled cluster.
type ElasticOptions struct {
	// ColdStart is the provisioning delay in simulated seconds before a
	// scaled-up replica accepts work (model load + KV allocation). Zero
	// activates instantly.
	ColdStart float64
	// InitialActive is the number of replicas per role pool active at t=0
	// (lowest IDs first); the rest start stateStopped as spare capacity.
	// Clamped to each pool's size; must be at least 1.
	InitialActive int
}

// NewElastic builds a cluster whose fleet an autoscale controller resizes
// mid-run: the systems/roles define the capacity fleet, of which only the
// first InitialActive replicas per role pool start active; the rest are
// spare (stateStopped, unbilled) until scaled up. The transfer model prices
// drain migrations (and the prefill-to-decode handoff of a disaggregated
// fleet) and must validate.
func NewElastic(systems []sched.System, roles []Role, router Router, transfer gpu.KVTransfer, opts ElasticOptions) (*Cluster, error) {
	if opts.InitialActive < 1 {
		return nil, fmt.Errorf("cluster: elastic initial active %d < 1", opts.InitialActive)
	}
	if opts.ColdStart < 0 {
		return nil, fmt.Errorf("cluster: negative cold start %g", opts.ColdStart)
	}
	if err := transfer.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: KV-transfer model: %w", err)
	}
	c, err := NewWithRoles(systems, roles, router, transfer)
	if err != nil {
		return nil, err
	}
	c.elastic = true
	c.coldStart = opts.ColdStart
	// Lowest IDs first per role pool stay active; the rest park as spares.
	activePerRole := map[Role]int{}
	for _, rep := range c.replicas {
		if activePerRole[rep.role] < opts.InitialActive {
			activePerRole[rep.role]++
			continue
		}
		rep.state = stateStopped
	}
	c.rebuildRoutable()
	if len(c.routablePrefill) == 0 || len(c.routableDecode) == 0 {
		return nil, fmt.Errorf("cluster: elastic initial fleet lacks an active prefill- or decode-capable replica")
	}
	c.peakFleet = c.CommittedFleet()
	c.minFleet = c.peakFleet
	return c, nil
}

// State returns the replica's lifecycle state.
func (rep *Replica) State() State { return rep.state }

// Elastic reports whether the cluster's fleet can be resized mid-run.
func (c *Cluster) Elastic() bool { return c.elastic }

// ActiveServing counts replicas currently serving traffic (StateActive):
// the capacity denominator admission gates normalize queue depth by. While
// a scaled-up replica provisions, CommittedFleet − ActiveServing is the
// cold-start gap the gate covers.
func (c *Cluster) ActiveServing() int {
	n := 0
	for _, rep := range c.replicas {
		if rep.state == StateActive {
			n++
		}
	}
	return n
}

// CommittedFleet counts replicas consuming capacity: provisioning, active
// or draining. Failed replicas are excluded — a crash stops the meter, and
// the outage is accounted as unavailability (metrics.FaultSummary), not
// capacity.
func (c *Cluster) CommittedFleet() int {
	n := 0
	for _, rep := range c.replicas {
		if rep.state != stateStopped && rep.state != StateFailed {
			n++
		}
	}
	return n
}

// PoolCounts reports the lifecycle occupancy of one role pool.
type PoolCounts struct {
	Active, Provisioning, draining int
	stopped                        int
	// failed counts crashed replicas: built capacity that is neither billed
	// nor spare — ScaleUp cannot provision it until recovery returns it.
	failed int
}

// committed is the pool's capacity-consuming replica count.
func (p PoolCounts) committed() int { return p.Active + p.Provisioning + p.draining }

// Capacity is the pool's built replica count.
func (p PoolCounts) Capacity() int { return p.committed() + p.stopped + p.failed }

// CountPool tallies the lifecycle states of the replicas running one role.
func (c *Cluster) CountPool(role Role) PoolCounts {
	var pc PoolCounts
	for _, rep := range c.replicas {
		if rep.role != role {
			continue
		}
		switch rep.state {
		case StateActive:
			pc.Active++
		case StateProvisioning:
			pc.Provisioning++
		case StateDraining:
			pc.draining++
		case StateFailed:
			pc.failed++
		default:
			pc.stopped++
		}
	}
	return pc
}

// rebuildRoutable refreshes the state-filtered router candidate sets after a
// transition.
func (c *Cluster) rebuildRoutable() {
	c.routablePrefill = c.routablePrefill[:0]
	for _, rep := range c.prefillCap {
		if rep.state == StateActive {
			c.routablePrefill = append(c.routablePrefill, rep)
		}
	}
	c.routableDecode = c.routableDecode[:0]
	for _, rep := range c.decodeCap {
		if rep.state == StateActive {
			c.routableDecode = append(c.routableDecode, rep)
		}
	}
}

// noteFleet updates the committed-fleet peak/min watermarks after a
// transition.
func (c *Cluster) noteFleet() {
	n := c.CommittedFleet()
	if n > c.peakFleet {
		c.peakFleet = n
	}
	if n < c.minFleet {
		c.minFleet = n
	}
}

// ScaleUp provisions one stopped replica of the given role: it starts
// consuming capacity immediately and becomes routable once the cold start
// elapses (an activation delivery on the driver's queue flips it at the
// ready instant, interleaved deterministically with arrivals and
// migrations). Returns false when the pool has no spare replica.
func (c *Cluster) ScaleUp(role Role, now float64, q *serve.Queue) (*Replica, bool) {
	if !c.elastic {
		return nil, false
	}
	var rep *Replica
	for _, cand := range c.replicas {
		if cand.role == role && cand.state == stateStopped {
			rep = cand
			break
		}
	}
	if rep == nil {
		return nil, false
	}
	rep.state = StateProvisioning
	rep.activeSince = now
	rep.readyAt = now + c.coldStart
	if c.coldStart <= 0 {
		c.activate(rep, now)
	} else {
		c.scaleSeq++
		ready := rep.readyAt
		q.Schedule(ready, scaleDeliveryBase+c.scaleSeq, func() { c.activate(rep, ready) })
	}
	c.ups++
	c.noteFleet()
	return rep, true
}

// activate flips a provisioning replica to active at its ready instant. A
// stale delivery — the replica was canceled (and possibly re-provisioned
// with a different ready time) since this activation was scheduled — is
// ignored.
func (c *Cluster) activate(rep *Replica, readyAt float64) {
	if rep.state != StateProvisioning || rep.readyAt != readyAt {
		return
	}
	rep.state = StateActive
	rep.inst.BumpClock(readyAt)
	c.rebuildRoutable()
}

// ScaleDown shrinks one role pool by a replica. Provisioning replicas are
// canceled first (most recently provisioned first — the cheapest capacity
// to give back); otherwise the active replica with the least outstanding
// work drains: no new admissions, waiting requests migrate to active
// replicas over the KV-transfer path, running requests finish in place, and
// the replica stops once empty. Refused (false) when removal would leave
// the cluster without an active prefill- or decode-capable replica.
func (c *Cluster) ScaleDown(role Role, now float64, q *serve.Queue) (*Replica, bool) {
	if !c.elastic {
		return nil, false
	}
	// Cancel a provisioning replica first: most recent ready time, then
	// highest ID, so the pick is stable and the longest-cooking replica is
	// kept.
	var cancel *Replica
	for _, rep := range c.replicas {
		if rep.role != role || rep.state != StateProvisioning {
			continue
		}
		if cancel == nil || rep.readyAt > cancel.readyAt ||
			(rep.readyAt == cancel.readyAt && rep.ID() > cancel.ID()) {
			cancel = rep
		}
	}
	if cancel != nil {
		cancel.consumed += now - cancel.activeSince
		cancel.state = stateStopped
		cancel.readyAt = -1 // invalidates the queued activation delivery
		c.downs++
		c.noteFleet()
		return cancel, true
	}
	var victim *Replica
	victimLoad := 0
	for _, rep := range c.replicas {
		if rep.role != role || rep.state != StateActive || rep.pendingDeliveries > 0 {
			// A replica with in-flight inbound deliveries cannot drain:
			// the delivery would otherwise land on a stopped replica and
			// serve unbilled.
			continue
		}
		if load := rep.QueuedTokens(); victim == nil || load < victimLoad ||
			(load == victimLoad && rep.ID() > victim.ID()) {
			victim, victimLoad = rep, load
		}
	}
	if victim == nil || !c.removable(victim) {
		return nil, false
	}
	c.drain(victim, now, q)
	c.downs++
	c.noteFleet()
	return victim, true
}

// removable reports whether draining rep would still leave an active
// prefill-capable and an active decode-capable replica.
func (c *Cluster) removable(rep *Replica) bool {
	prefill, decode := 0, 0
	for _, other := range c.replicas {
		if other == rep || other.state != StateActive {
			continue
		}
		if other.role != RoleDecode {
			prefill++
		}
		if other.role != RolePrefill {
			decode++
		}
	}
	return prefill > 0 && decode > 0
}

// drain starts a replica's shutdown: it leaves the routable sets, its
// waiting requests are re-dispatched to active replicas — requests with
// computed KV (partial prefill or paused decodes) pay the transfer model
// for the handoff, untouched arrivals move free — and its running requests
// finish in place. A migrated request's placement stats move with it (the
// drainer forgets it; the target counts it in the stage it will actually
// serve), so no request is double-counted across per-replica summaries.
// sweepDrained stops the replica once its pool empties.
func (c *Cluster) drain(rep *Replica, now float64, q *serve.Queue) {
	rep.state = StateDraining
	rep.drainedAt = now
	c.rebuildRoutable()
	pool := rep.System().Pool()
	waiting := append([]*request.Request(nil), pool.Waiting()...)
	for _, r := range waiting {
		pool.Remove(r)
		rep.System().Release(r)
		rep.forget(r)
		lat := 0.0
		if computed := r.PrefillDone + r.OutputLen(); computed > 0 {
			lat = c.transfer.Latency(computed)
			c.stats.Count++
			c.stats.Bytes += c.transfer.Bytes(computed)
			c.stats.Time += lat
		}
		c.drainMigrations++
		req, ready := r, now+lat
		bytes := 0.0
		if computed := r.PrefillDone + r.OutputLen(); computed > 0 {
			bytes = c.transfer.Bytes(computed)
		}
		if r.RemainingPrefill() > 0 {
			// Still a prefill-stage arrival: it re-routes like a dispatch
			// and lands in the target's routed list.
			tgt := c.routablePrefill[c.router.Route(r, c.routablePrefill)]
			tgt.pendingDeliveries++
			q.ScheduleMigration(ready, req.ID, serve.Migration{
				Req: req, From: rep.inst.ID(), To: tgt.inst.ID(), Depart: now, Bytes: bytes,
			}, func() { c.deliverRouted(req, tgt, ready) })
		} else {
			// Prefill-complete: a decode-stage migration.
			tgt := c.routableDecode[c.router.RouteDecode(r, c.routableDecode)]
			tgt.pendingDeliveries++
			q.ScheduleMigration(ready, req.ID, serve.Migration{
				Req: req, From: rep.inst.ID(), To: tgt.inst.ID(), Depart: now, Bytes: bytes,
			}, func() { c.deliver(req, tgt, ready) })
		}
	}
	c.sweepDrained()
}

// forget removes r from the replica's placement lists: drain migration
// transfers statistical ownership to the new target.
func (rep *Replica) forget(r *request.Request) {
	for i, q := range rep.routed {
		if q == r {
			rep.routed = append(rep.routed[:i], rep.routed[i+1:]...)
			return
		}
	}
	for i, q := range rep.migrated {
		if q == r {
			rep.migrated = append(rep.migrated[:i], rep.migrated[i+1:]...)
			return
		}
	}
}

// SweepDrained retires draining replicas whose pools have emptied: each
// flips to stateStopped and its consumption span closes at the instant it
// ran out of work (its own clock, or the drain decision for a replica that
// was already idle). The autoscale controller calls this every tick; the
// cluster also sweeps after its own iterations so lifecycle stats stay
// current between controller decisions.
func (c *Cluster) SweepDrained() {
	if c.elastic {
		c.sweepDrained()
	}
}

func (c *Cluster) sweepDrained() {
	for _, rep := range c.replicas {
		if rep.state != StateDraining {
			continue
		}
		p := rep.System().Pool()
		if p.NumWaiting() > 0 || p.NumRunning() > 0 {
			continue
		}
		end := rep.Clock()
		if end < rep.drainedAt {
			end = rep.drainedAt
		}
		rep.consumed += end - rep.activeSince
		rep.state = stateStopped
	}
}

// lifecycleStats reports the fleet's replica-lifecycle economics at
// simulated time end (typically the run's EndTime): scale events, drain
// migrations, committed-fleet watermarks, and total replica-seconds
// consumed — still-committed replicas bill through end. The caller fills
// the request-outcome fields (Finished/Attained/GoodTokens) and Policy.
func (c *Cluster) lifecycleStats(end float64) metrics.AutoscaleSummary {
	s := metrics.AutoscaleSummary{
		ScaleUps:        c.ups,
		ScaleDowns:      c.downs,
		DrainMigrations: c.drainMigrations,
		PeakReplicas:    c.peakFleet,
		MinReplicas:     c.minFleet,
	}
	for _, rep := range c.replicas {
		s.ReplicaSeconds += rep.consumed
		// Failed replicas stopped billing at the crash (their span closed in
		// Fail); the outage shows up as unavailability, not capacity.
		if rep.state != stateStopped && rep.state != StateFailed && end > rep.activeSince {
			s.ReplicaSeconds += end - rep.activeSince
		}
	}
	return s
}
