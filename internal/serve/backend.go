package serve

import (
	"errors"
	"math"
	"sort"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
)

// Instance is one serving engine under the driver: a sched.System plus its
// simulation state (local clock, iteration accounting). Backends create
// instances with NewInstance; the driver owns clock advancement and
// iteration accounting.
//
// Work — a waiting or running request, or a thaw (SetHalted(false)) of an
// instance holding one — may be added to an instance only inside
// Backend.Dispatch, a delivery scheduled on the Queue, or a control hook's
// Tick: the driver re-keys its next-instance index at exactly those points.
// Work may drain, and clocks may rise, anywhere.
type Instance struct {
	id         int
	sys        sched.System
	clock      float64
	iterations int
	breakdown  metrics.Breakdown

	// halted freezes the instance: the driver stops iterating it (hasWork
	// reports false), so resident requests make no progress. Fault injection
	// uses this to model a crashed replica whose work is lost in place.
	halted bool
	// stepScale, when positive and not 1, multiplies every iteration's
	// elapsed time: the straggler knob. Zero (the default) means unscaled,
	// keeping fault-free runs byte-identical.
	stepScale float64
}

// NewInstance wraps a serving system as instance id of a backend.
func NewInstance(id int, sys sched.System) *Instance {
	return &Instance{id: id, sys: sys}
}

// ID returns the instance's index within its backend.
func (in *Instance) ID() int { return in.id }

// System returns the wrapped serving system.
func (in *Instance) System() sched.System { return in.sys }

// Clock returns the instance's local simulated time: the end of its last
// executed iteration (or the last event that woke it while idle).
func (in *Instance) Clock() float64 { return in.clock }

// Iterations returns the instance's executed scheduling-iteration count.
func (in *Instance) Iterations() int { return in.iterations }

// Breakdown returns the instance's accumulated per-phase time accounting.
func (in *Instance) Breakdown() metrics.Breakdown { return in.breakdown }

// BumpClock advances the clock to at least t. Idle instances jump to the
// event that wakes them; clocks never move backwards.
func (in *Instance) BumpClock(t float64) {
	if in.clock < t {
		in.clock = t
	}
}

// SetHalted freezes or thaws the instance (see the halted field). Fault
// injectors call this at crash and repair instants.
func (in *Instance) SetHalted(halted bool) { in.halted = halted }

// Halted reports whether the instance is frozen by fault injection.
func (in *Instance) Halted() bool { return in.halted }

// SetStepScale sets the straggler slowdown factor applied to every
// iteration's elapsed time (0 or 1: unscaled).
func (in *Instance) SetStepScale(f float64) { in.stepScale = f }

// hasWork reports whether the instance has waiting or running requests. A
// halted (crashed) instance never has work: its resident requests are frozen
// until fault recovery harvests them.
func (in *Instance) hasWork() bool {
	if in.halted {
		return false
	}
	p := in.sys.Pool()
	return p.NumWaiting() > 0 || p.NumRunning() > 0
}

// key is the instance's key in the driver's next-instance index: its clock
// while it has work, +Inf otherwise.
func (in *Instance) key() float64 {
	if in.hasWork() {
		return in.clock
	}
	return math.Inf(1)
}

// Backend is the serving substrate behind a Server: a single system or a
// multi-replica cluster. The driver advances its instances; the backend owns
// request placement (routing) and any post-iteration movement (e.g.
// prefill-to-decode migration in a disaggregated cluster).
//
// A backend adds work to an instance only inside Dispatch (to the instance
// it returns), a delivery it scheduled on the Queue, or a control hook's
// Tick; AfterIterate may only move work off the instance that iterated, onto
// the Queue. See Instance.
type Backend interface {
	// Instances returns the serving instances in ID order; instance i must
	// report ID i. The slice must be stable for the whole run.
	Instances() []*Instance
	// Dispatch routes a newly arrived request: enqueue it into the chosen
	// instance's pool — bumping an idle instance's clock to the arrival
	// instant — and return that instance. It returns ErrNoReplica, leaving
	// the request untouched, when no instance can take arrivals right now.
	Dispatch(r *request.Request) (*Instance, error)
	// AfterIterate runs backend work after in executed one iteration (e.g.
	// harvesting prefill-complete requests off a prefill replica), scheduling
	// any deferred deliveries on q.
	AfterIterate(in *Instance, q *Queue) error
}

// ErrNoReplica reports that a backend has no instance able to take an
// arrival at the moment: every replica that could serve it has failed or
// stopped. The driver holds such arrivals, in order, and dispatches them as
// soon as the backend accepts again (a repaired or started replica); any
// still held when the run ends are counted in Result.Unplaced.
var ErrNoReplica = errors.New("no routable replica")

// single is the trivial backend: one instance, every arrival lands on it.
type single struct {
	insts []*Instance
}

// SingleSystem wraps one serving system as a Backend: the single-replica
// deployment of a run without a fleet.
func SingleSystem(sys sched.System) Backend {
	return &single{insts: []*Instance{NewInstance(0, sys)}}
}

// Instances implements Backend.
func (s *single) Instances() []*Instance { return s.insts }

// Dispatch implements Backend.
func (s *single) Dispatch(r *request.Request) (*Instance, error) {
	in := s.insts[0]
	in.BumpClock(r.ArrivalTime)
	in.sys.Pool().Enqueue(r)
	return in, nil
}

// AfterIterate implements Backend.
func (s *single) AfterIterate(*Instance, *Queue) error { return nil }

// delivery is one deferred internal event: deliver runs when the driver's
// event cursor reaches the ready instant. mig, when non-nil, annotates the
// delivery as a request migration; the driver emits a RequestMigrated event
// after executing it (only while observers are registered — the annotation
// costs one nil check on the observer-free path).
type delivery struct {
	ready   float64
	id      int
	deliver func()
	mig     *Migration
}

// Migration annotates a scheduled delivery that moves a request between
// replicas, so observers can reconstruct the transfer window (Depart →
// delivery) without the backend knowing about events.
type Migration struct {
	Req *request.Request
	// From and To are the source and destination instance IDs.
	From, To int
	// Depart is when the request left the source.
	Depart float64
	// Bytes is the KV payload moved (0 when no KV travels).
	Bytes float64
}

// Queue holds a run's deferred internal deliveries — events a backend
// schedules for a future instant, like in-flight prefill-to-decode KV
// migrations — ordered by (ready time, id). The driver interleaves them
// with source arrivals in global event-time order (internal deliveries
// before arrivals only when strictly earlier).
type Queue struct {
	items []delivery
}

// Schedule enqueues a delivery at the ready instant. id breaks ties between
// deliveries at the same instant (lower id first); callers use the request
// ID so the order is deterministic.
func (q *Queue) Schedule(ready float64, id int, deliver func()) {
	q.insert(delivery{ready: ready, id: id, deliver: deliver})
}

// ScheduleMigration enqueues a delivery like Schedule and annotates it as a
// request migration: when the driver executes it, it emits a RequestMigrated
// event carrying m. The annotation is derivation-only — it never perturbs
// the simulation, and with no observers registered it costs one nil check.
func (q *Queue) ScheduleMigration(ready float64, id int, m Migration, deliver func()) {
	q.insert(delivery{ready: ready, id: id, deliver: deliver, mig: &m})
}

// insert places d in (ready, id) order.
func (q *Queue) insert(d delivery) {
	at := sort.Search(len(q.items), func(i int) bool {
		it := q.items[i]
		return it.ready > d.ready || (it.ready == d.ready && it.id > d.id)
	})
	q.items = append(q.items, delivery{})
	copy(q.items[at+1:], q.items[at:])
	q.items[at] = d
}

// peek returns the earliest pending delivery without consuming it.
func (q *Queue) peek() (delivery, bool) {
	if len(q.items) == 0 {
		return delivery{}, false
	}
	return q.items[0], true
}

// pop consumes and returns the earliest pending delivery.
func (q *Queue) pop() delivery {
	d := q.items[0]
	q.items = q.items[1:]
	return d
}
