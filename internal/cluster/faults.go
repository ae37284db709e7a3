package cluster

import (
	"fmt"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// This file is the cluster half of the fault-injection subsystem: the state
// mutations an internal/faults.Injector drives through event-time callbacks.
// A run without faults never calls them, and a replica is only ever
// StateFailed after Fail.

// LinkWindow is one KV-transfer link-fault window: while a prefill-to-decode
// migration's departure instant falls in [From, To), the transfer's latency
// is multiplied by Factor (1: undegraded) and the migration fails outright
// with probability FailProb — the prompt KV is lost in flight and the
// destination admits the request as a recompute fallback, re-prefilling the
// prompt in place. The per-request coin flip is keyed on (Seed, request ID),
// so outcomes are independent of replica interleaving and any -parallel
// width.
type LinkWindow struct {
	From, To float64
	FailProb float64
	Factor   float64
	Seed     uint64
}

// hits reports whether a departure at t falls in the window.
func (w LinkWindow) hits(t float64) bool { return t >= w.From && t < w.To }

// fails flips the window's keyed coin for one migration.
func (w LinkWindow) fails(reqID int) bool {
	if w.FailProb <= 0 {
		return false
	}
	if w.FailProb >= 1 {
		return true
	}
	u := float64(mathutil.Hash2(w.Seed, uint64(reqID))>>11) / float64(uint64(1)<<53)
	return u < w.FailProb
}

// SetLinkWindows installs the KV-transfer link-fault windows consulted by
// prefill-to-decode migrations. Drain migrations are unaffected: a drain is
// an orchestrated handoff with retry baked in, not a data-plane transfer
// racing a request's TTFT.
func (c *Cluster) SetLinkWindows(windows []LinkWindow) {
	c.linkWindows = append([]LinkWindow(nil), windows...)
}

// LinkFallbacks returns how many migrations failed in flight and fell back
// to prefill recompute on the destination; LinkDegraded counts migrations
// that paid a degraded (slowed) transfer.
func (c *Cluster) LinkFallbacks() int { return c.linkFallbacks }

// LinkDegraded returns the degraded-transfer count (see LinkFallbacks).
func (c *Cluster) LinkDegraded() int { return c.linkDegraded }

// linkFault prices one prefill-to-decode migration departing at t under the
// installed windows: it returns the (possibly degraded) transfer latency for
// the given base latency and whether the transfer failed in flight.
func (c *Cluster) linkFault(t float64, reqID int, lat float64) (float64, bool) {
	for _, w := range c.linkWindows {
		if !w.hits(t) {
			continue
		}
		if w.Factor > 1 {
			lat *= w.Factor
			c.linkDegraded++
		}
		if w.fails(reqID) {
			c.linkFallbacks++
			return lat, true
		}
		return lat, false
	}
	return lat, false
}

// Fail crashes a replica at event-time instant now: it halts abruptly
// (resident requests freeze in place; HarvestFailed collects them once
// detection fires), its billing span closes, a pending activation is
// invalidated, and it leaves the routable sets. Returns the number of
// resident requests frozen and whether the crash took effect (false when the
// replica is already failed or stopped — a crash against spare capacity is a
// no-op).
func (c *Cluster) Fail(id int, now float64) (lost int, ok bool) {
	if id < 0 || id >= len(c.replicas) {
		return 0, false
	}
	rep := c.replicas[id]
	if rep.state == StateFailed || rep.state == stateStopped {
		return 0, false
	}
	if now > rep.activeSince {
		rep.consumed += now - rep.activeSince
	}
	rep.readyAt = -1 // invalidates any queued activation delivery
	rep.state = StateFailed
	rep.inst.SetHalted(true)
	rep.inst.SetStepScale(0)
	rep.inst.BumpClock(now)
	c.rebuildRoutable()
	c.noteFleet()
	p := rep.System().Pool()
	return p.NumWaiting() + p.NumRunning(), true
}

// HarvestFailed removes every resident request from a failed replica's
// frozen pool — its KV is gone with the replica — and returns them in
// deterministic pool order (waiting before running), detaching each from the
// replica's placement stats. The caller (failure detection) owns their
// onward lifecycle: requeue through Redispatch, or drop.
func (c *Cluster) HarvestFailed(id int) []*request.Request {
	rep := c.replicas[id]
	if rep.state != StateFailed {
		return nil
	}
	pool := rep.System().Pool()
	lost := append([]*request.Request(nil), pool.Waiting()...)
	lost = append(lost, pool.Running()...)
	for _, r := range lost {
		pool.Remove(r)
		rep.System().Release(r)
		rep.forget(r)
	}
	return lost
}

// Recover returns a crashed replica to service at event-time instant now.
// In a static fleet it resumes active duty immediately (repair delay is the
// whole re-provisioning story); in an elastic fleet it returns as spare
// (stateStopped) capacity — the autoscale controller already provisioned
// replacement capacity through its ordinary ScaleUp path, and the repaired
// machine rejoins the spare pool it came from. Any requests still frozen in
// the pool (repair beat detection) are harvested first and returned for the
// caller to recover or drop.
func (c *Cluster) Recover(id int, now float64) ([]*request.Request, bool) {
	rep := c.replicas[id]
	if rep.state != StateFailed {
		return nil, false
	}
	stranded := c.HarvestFailed(id)
	rep.inst.SetHalted(false)
	rep.inst.BumpClock(now)
	if c.elastic {
		rep.state = stateStopped
	} else {
		rep.state = StateActive
		rep.activeSince = now
	}
	c.rebuildRoutable()
	c.noteFleet()
	return stranded, true
}

// Redispatch places a recovered (retried or hedged) request on an active
// prefill-capable replica, avoiding the given replica ID when another
// candidate exists (-1: no exclusion). Unlike Dispatch it does not record
// the request in the cluster's admitted population — a retry or hedge is a
// second attempt at a request already admitted once.
func (c *Cluster) Redispatch(r *request.Request, now float64, avoid int) (*serve.Instance, error) {
	cands := c.routablePrefill
	if avoid >= 0 && len(cands) > 1 {
		filtered := make([]*Replica, 0, len(cands))
		for _, rep := range cands {
			if rep.ID() != avoid {
				filtered = append(filtered, rep)
			}
		}
		if len(filtered) > 0 {
			cands = filtered
		}
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("cluster: no active prefill-capable replica for re-dispatch")
	}
	idx := c.router.Route(r, cands)
	if idx < 0 || idx >= len(cands) {
		return nil, fmt.Errorf("cluster: router %s picked replica %d of %d",
			c.router.Name(), idx, len(cands))
	}
	rep := cands[idx]
	rep.inst.BumpClock(now)
	rep.System().Pool().Enqueue(r)
	rep.routed = append(rep.routed, r)
	return rep.inst, nil
}

// Evict removes a request from whichever replica it currently resides on
// (pool, KV and placement stats), reporting whether it was found: hedging
// cancels the losing duplicate this way. Finished or in-flight requests are
// not resident and return false.
func (c *Cluster) Evict(r *request.Request) bool {
	for _, rep := range c.replicas {
		pool := rep.System().Pool()
		resident := false
		for _, q := range pool.Waiting() {
			if q == r {
				resident = true
				break
			}
		}
		if !resident {
			for _, q := range pool.Running() {
				if q == r {
					resident = true
					break
				}
			}
		}
		if !resident {
			continue
		}
		pool.Remove(r)
		rep.System().Release(r)
		rep.forget(r)
		return true
	}
	return false
}

// AdoptOutcome resolves a won hedge: the original request adopts the
// duplicate's computed outcome (output, context, timing — so its TTFT
// reflects the winning path), the duplicate leaves the winner's placement
// stats, and the original retires through the winner's pool via AdoptDone,
// where the serve driver derives its lifecycle events at the next iteration
// boundary. The original must already be evicted from its losing replica.
func (c *Cluster) AdoptOutcome(orig, shadow *request.Request, winner int) {
	rep := c.replicas[winner]
	orig.Phase = request.Done
	orig.PrefillDone = shadow.PrefillDone
	orig.Generated = shadow.Generated
	orig.Ctx = shadow.Ctx
	orig.AdmitTime = shadow.AdmitTime
	orig.FirstDecodeTime = shadow.FirstDecodeTime
	orig.FirstTokenTime = shadow.FirstTokenTime
	orig.DoneTime = shadow.DoneTime
	orig.VerifySteps = shadow.VerifySteps
	orig.AcceptedTokens = shadow.AcceptedTokens
	rep.forget(shadow)
	rep.routed = append(rep.routed, orig)
	rep.System().Pool().AdoptDone(orig)
}
