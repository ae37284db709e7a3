package faults

import (
	"fmt"
	"math"

	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// Recovery selects how the injector responds to the failures it causes.
type Recovery int

const (
	// RecoveryNone injects faults and recovers nothing: lost requests stay
	// lost (the chaos baseline).
	RecoveryNone Recovery = iota
	// RecoveryRetry detects crashes by timeout, harvests the lost requests
	// and re-dispatches each to a surviving replica under a per-request
	// retry budget with exponential backoff; crashed replicas are repaired
	// per the schedule and elastic fleets re-provision replacements.
	RecoveryRetry
	// RecoveryRetryHedge adds hedged re-dispatch: a request whose TTFT
	// deadline is at risk on a suspect (stalled) replica races a duplicate
	// on another replica — first finish wins, the loser is cancelled and
	// billed.
	RecoveryRetryHedge
)

// String implements fmt.Stringer.
func (r Recovery) String() string {
	switch r {
	case RecoveryNone:
		return "none"
	case RecoveryRetry:
		return "retry"
	case RecoveryRetryHedge:
		return "retry+hedge"
	default:
		return fmt.Sprintf("Recovery(%d)", int(r))
	}
}

// ParseRecovery parses a recovery-mode name.
func ParseRecovery(s string) (Recovery, error) {
	switch s {
	case "none":
		return RecoveryNone, nil
	case "retry":
		return RecoveryRetry, nil
	case "retry+hedge", "hedge":
		return RecoveryRetryHedge, nil
	default:
		return 0, fmt.Errorf("faults: unknown recovery mode %q (want none, retry or retry+hedge)", s)
	}
}

// hedgeIDBase offsets hedge-duplicate request IDs past every real request ID
// (and below the delivery-queue ID bases), so duplicates never collide with
// tracked requests and their deliveries order deterministically.
const hedgeIDBase = 1 << 28

// faultDeliveryBase offsets fault-lifecycle delivery IDs past both request
// IDs and the cluster's activation-delivery IDs (1<<30 + seq), so a fault
// instant colliding with a migration or activation orders after it,
// deterministically.
const faultDeliveryBase = 3 << 29

// Recovery timing and hedging parameters, fixed for every run.
const (
	// detectDelay is the failure-detection timeout in simulated seconds: the
	// gap between a crash and recovery noticing it from the replica's silent
	// clock (no oracle — injection and detection are separate instants).
	detectDelay = 0.25
	// backoff is the first retry's delay, doubling per attempt.
	backoff = detectDelay / 2
	// retryBudget bounds re-dispatches per request.
	retryBudget = 3
	// hedgeRisk is the fraction of a request's TTFT SLO after which, still
	// tokenless on a suspect replica, it is hedged.
	hedgeRisk = 0.6
	// suspectAfter is the clock-divergence patience window: a replica whose
	// clock has drifted from the fleet's observed time by more than this
	// span is suspect — a straggler's clock lurches ahead of the fleet, a
	// crashed replica's freezes behind it, while a merely loaded replica
	// tracks the fleet closely. Observational only: no oracle, so suspicion
	// can fire before detection confirms a crash.
	suspectAfter = detectDelay / 2
	// hedgeSlots caps concurrently racing duplicates. A hedge launches only
	// while fewer than this many races still have both copies running, so a
	// straggler's whole backlog cannot convert into a duplicate storm that
	// overloads the healthy replicas it is racing on — the hedge-budget
	// discipline of tail-tolerant systems. A race stops occupying a slot at
	// the winner's first token, when the loser is cancelled, so slots
	// recycle at the healthy replicas' response time.
	hedgeSlots = 2
)

// Options configures an Injector.
type Options struct {
	// Seed drives replica binding, hazard expansion and link-fault coin
	// flips; fault schedules are pure functions of it.
	Seed uint64
	// Horizon bounds hazard expansion (required when the spec has a hazard
	// term; typically the run duration).
	Horizon float64
	// Recovery selects the response mode (default RecoveryNone).
	Recovery Recovery
}

// crashRec tracks one injected crash through detection and repair.
type crashRec struct {
	replica  int
	failAt   float64
	repairAt float64
	detected bool
}

// hedgeRec tracks one outstanding hedge race.
type hedgeRec struct {
	orig, shadow *request.Request
	winnerInst   int
	origLost     bool // original harvested off a crashed replica
	shadowWon    bool // original cancelled at the shadow's first token
	resolved     bool
}

// Injector implements serve.FaultInjector over a cluster backend: wire it
// into a run via serve.Options.Faults. It schedules the bound fault events
// on the driver's delivery queue at exact instants, mutates the cluster
// through its fault hooks (Fail/Recover/Redispatch), and drives recovery —
// timeout detection, budgeted retry with exponential backoff, hedged
// re-dispatch — entirely at deterministic event-time instants, so faulted
// runs are reproducible under a fixed seed at any parallelism.
//
// Like the backends it disrupts, an Injector is single-use.
type Injector struct {
	cl      *cluster.Cluster
	spec    Spec
	opts    Options
	events  []event
	windows []cluster.LinkWindow

	armed   bool
	q       *serve.Queue
	seq     int
	lastNow float64
	pending []serve.FaultAction

	crashes    []*crashRec
	hedges     map[int]*hedgeRec
	hedgeOrder []int

	sum metrics.FaultSummary
}

// New binds a fault spec against a cluster and builds its injector. Link
// windows install on the cluster immediately, and need a prefill-role
// replica whose handoffs they can fault; injection itself starts when the
// driver first ticks the injector.
func New(cl *cluster.Cluster, spec Spec, opts Options) (*Injector, error) {
	if cl == nil {
		return nil, fmt.Errorf("faults: cluster required")
	}
	bound, err := spec.bind(opts.Seed, cl.Size(), opts.Horizon)
	if err != nil {
		return nil, err
	}
	inj := &Injector{
		cl: cl, spec: spec, opts: opts,
		hedges: make(map[int]*hedgeRec),
	}
	for i, ev := range bound {
		if ev.kind == kindLink {
			inj.windows = append(inj.windows, cluster.LinkWindow{
				From: ev.time, To: ev.time + ev.duration,
				FailProb: ev.failProb, Factor: ev.factor,
				Seed: mathutil.Hash2(opts.Seed, 0x117c+uint64(i)),
			})
			continue
		}
		inj.events = append(inj.events, ev)
	}
	if len(inj.windows) > 0 && !hasPrefillRole(cl) {
		return nil, fmt.Errorf("faults: link faults need a disaggregated fleet (no prefill replica hands off KV)")
	}
	cl.SetLinkWindows(inj.windows)
	inj.sum.LinkWindows = len(inj.windows)
	return inj, nil
}

// hasPrefillRole reports whether any replica hands prompts off to decode
// replicas over the KV-transfer link.
func hasPrefillRole(cl *cluster.Cluster) bool {
	for _, role := range cl.Roles() {
		if role == cluster.RolePrefill {
			return true
		}
	}
	return false
}

// Summary reports the fault rollup of a completed run; end is the run's
// simulated end time (unrepaired crashes bill unavailability through it).
func (inj *Injector) Summary(end float64) metrics.FaultSummary {
	s := inj.sum
	s.Spec = inj.spec.String()
	s.Recovery = inj.opts.Recovery.String()
	s.TransferFallbacks = inj.cl.LinkFallbacks()
	s.TransferDegraded = inj.cl.LinkDegraded()
	mttr, repaired := 0.0, 0
	for _, rec := range inj.crashes {
		to := rec.repairAt
		if to < 0 {
			to = math.Max(end, rec.failAt)
		}
		s.UnavailableReplicaSeconds += to - rec.failAt
		if rec.repairAt >= 0 {
			mttr += rec.repairAt - rec.failAt
			repaired++
		}
	}
	if repaired > 0 {
		s.MTTR = mttr / float64(repaired)
	}
	return s
}

// OnEvent implements serve.Observer. Suspicion is derived from per-replica
// clocks at tick time, so the injector needs no event state; subscribing
// first still guarantees it could react before downstream controllers.
func (inj *Injector) OnEvent(serve.Event) {}

// Tick implements serve.FaultInjector: the first tick arms the schedule on
// the delivery queue; every tick resolves hedge races, launches new hedges
// for at-risk requests, and drains the actions taken since the last tick.
func (inj *Injector) Tick(now float64, q *serve.Queue) []serve.FaultAction {
	if !inj.armed {
		inj.armed = true
		inj.q = q
		inj.arm()
	}
	if now > inj.lastNow {
		inj.lastNow = now
	}
	if inj.opts.Recovery == RecoveryRetryHedge {
		inj.resolveHedges()
		inj.maybeHedge(now)
	}
	acts := inj.pending
	inj.pending = nil
	return acts
}

// nextID returns the next fault-delivery queue ID.
func (inj *Injector) nextID() int {
	inj.seq++
	return faultDeliveryBase + inj.seq
}

// arm schedules every bound crash and straggler event on the delivery
// queue at its exact instant.
func (inj *Injector) arm() {
	for _, ev := range inj.events {
		ev := ev
		switch ev.kind {
		case kindCrash:
			inj.q.Schedule(ev.time, inj.nextID(), func() { inj.injectCrash(ev) })
		case kindSlow:
			inst := inj.cl.Replicas()[ev.replica].Instance()
			inj.q.Schedule(ev.time, inj.nextID(), func() {
				inj.sum.Stragglers++
				inst.SetStepScale(ev.factor)
			})
			inj.q.Schedule(ev.time+ev.duration, inj.nextID(), func() { inst.SetStepScale(0) })
		}
	}
}

// injectCrash halts the target replica at the scheduled instant and
// schedules detection (and repair, when the event has one).
func (inj *Injector) injectCrash(ev event) {
	lost, ok := inj.cl.Fail(ev.replica, ev.time)
	if !ok {
		return // already failed or spare: the crash hit nothing
	}
	inj.sum.Crashes++
	rec := &crashRec{replica: ev.replica, failAt: ev.time, repairAt: -1}
	inj.crashes = append(inj.crashes, rec)
	inj.pending = append(inj.pending, serve.FaultAction{
		Kind: serve.FaultReplicaFailed, Time: ev.time, Instance: ev.replica,
		Lost: lost, Reason: "injected crash",
	})
	detectAt := ev.time + detectDelay
	inj.q.Schedule(detectAt, inj.nextID(), func() { inj.detect(rec, detectAt) })
	if ev.duration > 0 {
		repairAt := ev.time + ev.duration
		inj.q.Schedule(repairAt, inj.nextID(), func() { inj.repair(rec, repairAt) })
	}
}

// detect fires when the replica's silence exceeds the detection timeout: the
// frozen pool is harvested — its requests are lost with the replica's KV —
// and, under retry recovery, each loss is requeued with backoff. A request
// with a live hedge skips the requeue: the racing duplicate is its recovery.
func (inj *Injector) detect(rec *crashRec, now float64) {
	if rec.detected {
		return
	}
	rec.detected = true
	for _, r := range inj.cl.HarvestFailed(rec.replica) {
		if r.ID >= hedgeIDBase {
			// A hedge duplicate died with the replica it raced on: the
			// original falls back to ordinary recovery — unless it is still
			// racing somewhere, in which case it simply wins by forfeit.
			if h := inj.hedges[r.ID-hedgeIDBase]; h != nil && !h.resolved {
				h.resolved = true
				if (h.origLost || h.shadowWon) && h.orig.Phase != request.Done {
					inj.scheduleRetry(h.orig, now)
				}
			}
			continue
		}
		inj.sum.LostRequests++
		if h := inj.hedges[r.ID]; h != nil && !h.resolved {
			h.origLost = true // the live duplicate is the recovery path
			continue
		}
		inj.scheduleRetry(r, now)
	}
}

// scheduleRetry queues a lost request's next re-dispatch after its
// exponential backoff, or drops it when the budget is spent.
func (inj *Injector) scheduleRetry(r *request.Request, now float64) {
	if inj.opts.Recovery == RecoveryNone {
		return
	}
	attempt := r.Retries + 1
	if attempt > retryBudget {
		inj.sum.Dropped++
		return
	}
	ready := now + backoff*math.Pow(2, float64(attempt-1))
	inj.q.Schedule(ready, r.ID, func() { inj.redispatch(r, ready) })
}

// redispatch re-enters a lost request from scratch on a surviving replica.
func (inj *Injector) redispatch(r *request.Request, now float64) {
	if r.Phase == request.Done {
		return // a hedge resolved it while the retry waited
	}
	r.ResetForRetry()
	in, err := inj.cl.Redispatch(r, now, -1)
	if err != nil {
		// No routable replica right now (mass outage): burn the attempt and
		// back off again.
		inj.scheduleRetry(r, now)
		return
	}
	inj.sum.Retried++
	inj.pending = append(inj.pending, serve.FaultAction{
		Kind: serve.FaultRequestRetried, Time: now, Instance: in.ID(),
		Req: r, Attempt: r.Retries,
	})
}

// repair returns a crashed replica to service at the scheduled instant.
// Repair implies detection (the repair crew found the corpse): a not-yet-
// fired detection runs first so stranded requests recover rather than
// resurrecting with stale state.
func (inj *Injector) repair(rec *crashRec, now float64) {
	if rec.repairAt >= 0 {
		return
	}
	inj.detect(rec, now)
	if _, ok := inj.cl.Recover(rec.replica, now); !ok {
		return
	}
	rec.repairAt = now
	inj.sum.Repairs++
	inj.pending = append(inj.pending, serve.FaultAction{
		Kind: serve.FaultReplicaRecovered, Time: now, Instance: rec.replica,
		Downtime: now - rec.failAt,
	})
}

// resolveHedges settles races in launch order: the first copy to respond —
// to commit a token — wins, and the loser is cancelled immediately (evicted,
// but billed for the capacity it consumed). Cancelling at first token rather
// than completion bounds the duplicate's cost to queueing plus prefill; full
// double-decode would let a hedge storm starve the healthy replicas of the
// very capacity the hedges came for. A winning shadow's original is
// cancelled at once, and the shadow's outcome is handed back to it at
// completion via the cluster's adoption path, so the driver still emits the
// original's lifecycle events.
func (inj *Injector) resolveHedges() {
	for _, id := range inj.hedgeOrder {
		h := inj.hedges[id]
		if h == nil || h.resolved {
			continue
		}
		if h.origLost || h.shadowWon {
			// The shadow runs alone (the original crashed away or was
			// cancelled at the shadow's first token): adopt at completion.
			if h.shadow.Phase == request.Done {
				inj.cl.AdoptOutcome(h.orig, h.shadow, h.winnerInst)
				h.resolved = true
			}
			continue
		}
		origTok := h.orig.FirstTokenTime >= 0
		shadTok := h.shadow.FirstTokenTime >= 0
		switch {
		case h.orig.Phase == request.Done,
			origTok && (!shadTok || h.orig.FirstTokenTime <= h.shadow.FirstTokenTime):
			// The original responded first (ties break its way — it keeps
			// its billing span): the duplicate is cancelled.
			inj.cl.Evict(h.shadow)
			inj.sum.DuplicateCancelled++
			h.resolved = true
		case shadTok:
			inj.cl.Evict(h.orig)
			inj.sum.DuplicateCancelled++
			if h.shadow.Phase == request.Done {
				inj.cl.AdoptOutcome(h.orig, h.shadow, h.winnerInst)
				h.resolved = true
			} else {
				h.shadowWon = true
			}
		}
	}
}

// maybeHedge launches duplicates for TTFT-at-risk requests on suspect
// replicas. A replica is suspect when its clock has diverged from the
// fleet's observed time — the minimum clock over active working replicas —
// by more than suspectAfter: a straggler's clock lurches ahead by its
// inflated iterations, a crashed replica's freezes while the fleet runs on.
// Of a suspect replica's resident requests, those still tokenless past the
// hedgeRisk fraction of their TTFT SLO get a duplicate raced on a healthy
// replica, budgeted by the hedgeSlots cap on concurrent races. Both signals
// are per-replica clocks: no failure oracle.
func (inj *Injector) maybeHedge(now float64) {
	slots := hedgeSlots
	for _, h := range inj.hedges {
		if !h.resolved && !h.origLost && !h.shadowWon {
			slots--
		}
	}
	if slots <= 0 {
		return
	}
	reps := inj.cl.Replicas()
	fleetNow := -1.0
	activeOthers := make([]int, len(reps))
	for i, rep := range reps {
		if rep.State() != cluster.StateActive {
			continue
		}
		for j := range reps {
			if j != i {
				activeOthers[j]++
			}
		}
		pool := rep.System().Pool()
		if rep.Instance().Halted() || pool.NumWaiting()+pool.NumRunning() == 0 {
			continue
		}
		if c := rep.Clock(); fleetNow < 0 || c < fleetNow {
			fleetNow = c
		}
	}
	if fleetNow < 0 {
		fleetNow = now
	}
	for i, rep := range reps {
		if activeOthers[i] == 0 {
			continue // nowhere to race a duplicate
		}
		pool := rep.System().Pool()
		if pool.NumWaiting()+pool.NumRunning() == 0 {
			continue
		}
		// The replica-level gate: a healthy replica's clock tracks the fleet
		// (the driver always serves whoever is furthest behind), so a clock
		// diverging past the patience window marks a fault — a straggler's
		// lurches ahead by its inflated iteration, a crashed replica's freezes
		// while the fleet runs on. Mere queueing delay never diverges the
		// clock, so loaded-but-healthy replicas are not suspect and hedging
		// cannot storm a saturated fleet with duplicates.
		if math.Abs(rep.Clock()-fleetNow) <= suspectAfter {
			continue
		}
		obs := math.Max(rep.Clock(), fleetNow) // earliest instant this replica could serve its queue
		inj.hedgePool(pool.Waiting(), i, obs, fleetNow, &slots)
		inj.hedgePool(pool.Running(), i, obs, fleetNow, &slots)
		if slots <= 0 {
			return
		}
	}
}

// hedgePool races duplicates for the at-risk requests of one suspect
// replica's pool slice: obs is the replica's observed service time, at is
// the launch instant for the duplicates, slots the remaining hedge budget.
func (inj *Injector) hedgePool(reqs []*request.Request, suspect int, obs, at float64, slots *int) {
	for _, r := range reqs {
		if *slots <= 0 {
			return
		}
		if r.ID >= hedgeIDBase || r.TTFTSLO <= 0 || r.FirstTokenTime >= 0 {
			continue
		}
		if inj.hedges[r.ID] != nil {
			continue
		}
		if obs <= r.ArrivalTime+suspectAfter {
			continue // too fresh to have been hurt by the divergence
		}
		if obs <= r.ArrivalTime+hedgeRisk*r.TTFTSLO {
			continue // deadline not yet at risk
		}
		shadow := r.Clone()
		shadow.ID = hedgeIDBase + r.ID
		in, err := inj.cl.Redispatch(shadow, at, suspect)
		if err != nil {
			return // nowhere to race: every other replica is down too
		}
		inj.hedges[r.ID] = &hedgeRec{orig: r, shadow: shadow, winnerInst: in.ID()}
		inj.hedgeOrder = append(inj.hedgeOrder, r.ID)
		inj.sum.Hedged++
		*slots--
		inj.pending = append(inj.pending, serve.FaultAction{
			Kind: serve.FaultRequestHedged, Time: at, Instance: in.ID(), Req: r,
		})
	}
}
