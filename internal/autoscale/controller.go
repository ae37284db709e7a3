package autoscale

import (
	"fmt"

	"adaserve/internal/cluster"
	"adaserve/internal/metrics"
	"adaserve/internal/serve"
)

// defaultInterval is the decision cadence in simulated seconds.
const defaultInterval = 5.0

// Hysteresis bounds how fast and how far the controller moves the fleet, so
// different policies are comparable under identical traffic: every policy
// feels the same cooldowns and step limits. An up-step waits one decision
// interval after the pool's previous one, a down-step three; a pool never
// grows past its built capacity.
const (
	// minPerPool floors each role pool's committed replicas: the cluster
	// must keep serving every capability.
	minPerPool = 1
	// defaultUpStep/defaultDownStep bound replicas added/removed per
	// decision: growth is urgent (a missed spike is lost goodput), shrink is
	// cautious (a mistaken drain pays a cold start to undo).
	defaultUpStep   = 2
	defaultDownStep = 1
	// defaultDownStable is how many consecutive below-capacity decisions a
	// pool must see before it shrinks (sustained headroom, not one quiet
	// window).
	defaultDownStable = 3
	// downCooldownIntervals is the down-step cooldown in decision intervals.
	downCooldownIntervals = 3
)

// Options configures a Controller.
type Options struct {
	// Interval is the decision cadence in simulated seconds
	// (0: defaultInterval). Decisions land on the interval grid, evaluated
	// at the first iteration boundary past each grid instant.
	Interval float64
	// Window is the trailing-window width for rolling signals
	// (0: serve.DefaultSnapshotWindow).
	Window float64
}

// poolState is the controller's per-role-pool control state.
type poolState struct {
	role             cluster.Role
	lastUp, lastDown float64
	// lowTicks counts consecutive decisions that wanted fewer replicas.
	lowTicks int
}

// Controller implements serve.Autoscaler: wire it into a run via
// serve.Options.Autoscaler. It observes the event stream (arrivals, token
// commits, finishes) through rolling windows, and at each interval-grid
// instant asks the Policy for every role pool's desired size, applies
// hysteresis, and actuates the elastic cluster's replica lifecycle. All
// decisions happen at iteration boundaries in event-time order, so runs are
// deterministic under a fixed seed.
//
// Like the cluster it resizes, a Controller is single-use.
type Controller struct {
	cl     *cluster.Cluster
	policy Policy
	opts   Options

	rolling *metrics.Rolling
	pools   []*poolState
	next    float64

	// service calibrates the per-replica service rate from request
	// finishes between decisions, billed to the committed fleet as the
	// previous decision left it.
	service     metrics.PeakRate
	billedFleet int
}

// New builds a controller for an elastic cluster under the given policy.
func New(cl *cluster.Cluster, policy Policy, opts Options) (*Controller, error) {
	if cl == nil {
		return nil, fmt.Errorf("autoscale: cluster required")
	}
	if !cl.Elastic() {
		return nil, fmt.Errorf("autoscale: cluster is static; build it with cluster.NewElastic")
	}
	if policy == nil {
		return nil, fmt.Errorf("autoscale: policy required")
	}
	if opts.Interval < 0 || opts.Window < 0 {
		return nil, fmt.Errorf("autoscale: negative interval or window")
	}
	if opts.Interval == 0 {
		opts.Interval = defaultInterval
	}
	if opts.Window == 0 {
		opts.Window = serve.DefaultSnapshotWindow
	}
	c := &Controller{
		cl:          cl,
		policy:      policy,
		opts:        opts,
		rolling:     metrics.NewRolling(opts.Window),
		next:        opts.Interval,
		billedFleet: cl.CommittedFleet(),
	}
	// One control pool per role present, in prefill, decode, mixed order:
	// the TTFT-critical stage acts first, and the order is fixed so runs
	// are deterministic.
	for _, role := range []cluster.Role{cluster.RolePrefill, cluster.RoleDecode, cluster.RoleMixed} {
		if cl.CountPool(role).Capacity() > 0 {
			c.pools = append(c.pools, &poolState{role: role})
		}
	}
	return c, nil
}

// OnEvent implements serve.Observer: it feeds the rolling windows.
func (c *Controller) OnEvent(ev serve.Event) {
	switch e := ev.(type) {
	case serve.RequestAdmitted:
		c.rolling.Arrived(e.Req)
	case serve.RequestFinished:
		c.rolling.Finished(e.Req)
		c.service.Add(1)
	}
}

// Tick implements serve.Autoscaler: the driver calls it at every iteration
// boundary. Between grid instants it only sweeps drained replicas; at each
// grid instant it runs one decision round and returns the actions taken.
func (c *Controller) Tick(now float64, q *serve.Queue) []serve.ScaleAction {
	c.cl.SweepDrained()
	if now < c.next {
		return nil
	}
	for c.next <= now {
		c.next += c.opts.Interval
	}
	return c.decide(now, q)
}

// decide runs one decision round over every role pool.
func (c *Controller) decide(now float64, q *serve.Queue) []serve.ScaleAction {
	win := c.rolling.Windowed(now)
	arrivalRate := c.rolling.ArrivalRate(now)
	// Calibrate the per-replica service rate over the real elapsed span
	// since the last decision (decisions can be more than one interval
	// apart when the cluster idles through grid instants).
	c.service.Mark(now, c.billedFleet)
	var actions []serve.ScaleAction
	for _, ps := range c.pools {
		pc := c.cl.CountPool(ps.role)
		sig := signals{
			committed:            pc.Active + pc.Provisioning,
			queuedTokens:         c.poolQueuedTokens(ps.role),
			arrivalRate:          arrivalRate,
			serviceRate:          c.service.Peak(),
			windowAttainment:     win.WindowAttainment(),
			windowTTFTAttainment: win.WindowTTFTAttainment(),
			windowFinished:       win.WindowFinished,
		}
		desired := c.policy.desired(sig)
		if desired < minPerPool {
			desired = minPerPool
		}
		if desired > pc.Capacity() {
			desired = pc.Capacity()
		}
		committed := sig.committed
		switch {
		case desired > committed:
			ps.lowTicks = 0
			if now-ps.lastUp < c.opts.Interval && ps.lastUp > 0 {
				break
			}
			step := desired - committed
			if step > defaultUpStep {
				step = defaultUpStep
			}
			acted := false
			for i := 0; i < step; i++ {
				rep, ok := c.cl.ScaleUp(ps.role, now, q)
				if !ok {
					break
				}
				acted = true
				actions = append(actions, serve.ScaleAction{
					Up: true, Instance: rep.ID(), Role: ps.role.String(),
					Policy: c.policy.Name(),
					Reason: fmt.Sprintf("desired %d > committed %d (queued %d tok, %.2f req/s)",
						desired, committed, sig.queuedTokens, arrivalRate),
					Fleet: c.cl.CommittedFleet(),
				})
			}
			if acted {
				ps.lastUp = now
			}
		case desired < committed:
			ps.lowTicks++
			if ps.lowTicks < defaultDownStable || (now-ps.lastDown < downCooldownIntervals*c.opts.Interval && ps.lastDown > 0) {
				break
			}
			step := committed - desired
			if step > defaultDownStep {
				step = defaultDownStep
			}
			acted := false
			for i := 0; i < step; i++ {
				rep, ok := c.cl.ScaleDown(ps.role, now, q)
				if !ok {
					break
				}
				acted = true
				actions = append(actions, serve.ScaleAction{
					Up: false, Instance: rep.ID(), Role: ps.role.String(),
					Policy: c.policy.Name(),
					Reason: fmt.Sprintf("desired %d < committed %d (util %.2f, attain %.0f%%)",
						desired, committed, sig.utilization(), 100*win.WindowAttainment()),
					Fleet: c.cl.CommittedFleet(),
				})
			}
			if acted {
				ps.lastDown = now
				ps.lowTicks = 0
			}
		default:
			ps.lowTicks = 0
		}
	}
	c.billedFleet = c.cl.CommittedFleet()
	return actions
}

// poolQueuedTokens sums outstanding work over the pool's active replicas:
// prompt backlog for a prefill pool (the only work it does), total
// remaining tokens otherwise.
func (c *Controller) poolQueuedTokens(role cluster.Role) int {
	n := 0
	for _, rep := range c.cl.Replicas() {
		if rep.Role() != role || rep.State() != cluster.StateActive {
			continue
		}
		if role == cluster.RolePrefill {
			n += rep.QueuedPrefillTokens()
		} else {
			n += rep.QueuedTokens()
		}
	}
	return n
}
