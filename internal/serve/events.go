package serve

import (
	"fmt"

	"adaserve/internal/metrics"
	"adaserve/internal/request"
)

// Event is one typed occurrence in a serving run's request lifecycle. The
// driver emits events to registered observers in a deterministic total
// order: lifecycle moments are reported at the iteration boundary of the
// instance that produced them, so the stream follows simulation-processing
// order (per-event Time stamps carry the exact lifecycle instants, which in
// a multi-instance run are not globally monotone).
type Event interface {
	// When returns the simulated time the event is stamped with.
	When() float64
	// EventSeq returns the event's delivery sequence number: dense, starting
	// at 0, the total order observers receive events in.
	EventSeq() int
	isEvent()
}

// EventMeta is the header embedded in every event.
type EventMeta struct {
	// Time is the simulated instant of the underlying lifecycle moment.
	Time float64
	// Seq is the delivery sequence number.
	Seq int
}

// When, EventSeq and isEvent are the sealed Event contract; binaries link
// only the wrappers each event type promotes from EventMeta.

// When implements Event.
func (m EventMeta) When() float64 { return m.Time }

// EventSeq implements Event.
func (m EventMeta) EventSeq() int { return m.Seq }

func (EventMeta) isEvent() {}

// RequestAdmitted reports a request entering the serving system: the driver
// dispatched it onto an instance, whose pool it now waits in. Time is the
// request's arrival instant.
type RequestAdmitted struct {
	EventMeta
	Req *request.Request
	// Instance is the ID of the serving instance the request was routed to.
	Instance int
}

// FirstToken reports a request's first committed output token. Time is the
// commit instant, so Time − ArrivalTime is the request's TTFT.
type FirstToken struct {
	EventMeta
	Req      *request.Request
	Instance int
	// TTFT is the request's time-to-first-token in seconds.
	TTFT float64
}

// TokensCommitted reports output tokens committed for one request by one
// scheduling iteration. Time is the iteration's end.
type TokensCommitted struct {
	EventMeta
	Req      *request.Request
	Instance int
	// Tokens is the number committed this iteration; Total is the request's
	// cumulative output length after it.
	Tokens, Total int
}

// RequestRejected reports an arrival the admission gate turned away: the
// request never enters a serving pool and retires unserved. Time is the
// arrival instant. Exactly one terminal admission event (RequestRejected,
// or RequestDegraded followed by RequestAdmitted, or RequestAdmitted
// alone) is emitted per offered request.
type RequestRejected struct {
	EventMeta
	Req *request.Request
	// Reason is the gate's human-readable trigger.
	Reason string
}

// RequestDegraded reports an arrival admitted under overload at reduced
// service: the gate relaxed the request to the best-effort class and
// disabled its speculation (see request.Degrade) before dispatch. From and
// To record the SLO-class transition; the RequestAdmitted event for the
// same request follows immediately. Time is the arrival instant.
type RequestDegraded struct {
	EventMeta
	Req      *request.Request
	From, To request.Category
	// Reason is the gate's human-readable trigger.
	Reason string
}

// ViolationKind discriminates SLO violations.
type ViolationKind int

const (
	// ViolationTPOT: the request's average per-token latency cannot meet its
	// TPOT SLO any more — even committing every remaining token instantly
	// would leave it above target.
	ViolationTPOT ViolationKind = iota
	// ViolationTTFT: the request's TTFT deadline passed before its first
	// token was committed.
	ViolationTTFT
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case ViolationTPOT:
		return "tpot"
	case ViolationTTFT:
		return "ttft"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// SLOViolated reports the earliest iteration boundary at which a request's
// SLO violation became certain — before the request finishes, so online
// policies (renegotiation, shedding, alerting) can react. At most one event
// per kind fires per request.
type SLOViolated struct {
	EventMeta
	Req      *request.Request
	Instance int
	Kind     ViolationKind
}

// RequestFinished reports a retired request. Time is the request's DoneTime.
type RequestFinished struct {
	EventMeta
	Req      *request.Request
	Instance int
	// Attained and TTFTAttained report the request's SLO outcomes; TPOT is
	// its final average per-token latency.
	Attained, TTFTAttained bool
	TPOT                   float64
}

// ScaleUp reports an autoscaler decision to grow the fleet: one replica left
// the stopped state and began provisioning (or, with a zero cold-start,
// became active immediately). Time is the decision instant; the replica
// starts accepting work once its cold start elapses.
type ScaleUp struct {
	EventMeta
	Action ScaleAction
}

// ScaleDown reports an autoscaler decision to shrink the fleet: one replica
// began draining (no new admissions; in-flight work finishes or migrates) or
// had its provisioning canceled. Time is the decision instant.
type ScaleDown struct {
	EventMeta
	Action ScaleAction
}

// Snapshot is the periodic rolling-metrics event: emitted every
// Options.SnapshotEvery simulated seconds (stamped on that grid), plus one
// final snapshot at end of run whose cumulative fields match the terminal
// metrics.Summary. State reflects the iteration boundary at which the
// snapshot was emitted.
type Snapshot struct {
	EventMeta
	// Stats is the incrementally maintained rolling view: cumulative and
	// windowed attainment/goodput, overall and per SLO class.
	Stats metrics.RollingStats
	// Final marks the end-of-run snapshot.
	Final bool
}

// ScaleAction is one fleet-resize decision an Autoscaler took at an
// iteration boundary. The driver wraps each action in a ScaleUp or ScaleDown
// event so the stream carries the full replica-lifecycle history.
type ScaleAction struct {
	// Up discriminates growth (provision a replica) from shrink (drain one).
	Up bool
	// Instance is the ID of the affected serving instance.
	Instance int
	// Role is the affected replica's serving role ("mixed", "prefill",
	// "decode").
	Role string
	// Policy names the deciding policy; Reason is its human-readable trigger
	// (e.g. "queued 5120 tok > 2048/replica").
	Policy, Reason string
	// Fleet is the committed fleet size — replicas consuming capacity
	// (provisioning, active or draining) — after the action.
	Fleet int
}

// Autoscaler resizes the backend while a run executes. The driver subscribes
// it to the event stream (it observes like any Observer, before user
// observers) and calls Tick at every iteration boundary with the processed-
// time high-water mark and the run's delivery queue; the implementation
// paces its own decisions, actuates the backend (e.g. an elastic cluster's
// ScaleUp/ScaleDown), schedules deferred lifecycle transitions on the queue,
// and returns the actions it took for the driver to emit as events.
//
// Implementations must be deterministic and single-use, like the backends
// they resize.
type Autoscaler interface {
	Observer
	Tick(now float64, q *Queue) []ScaleAction
}

// ReplicaFailed reports an injected replica crash: the instance halted
// abruptly at Time, freezing (and ultimately losing) its queued and running
// requests along with its cached KV. Recovery, if configured, harvests and
// requeues the lost work after the detection timeout.
type ReplicaFailed struct {
	EventMeta
	// Instance is the crashed serving instance's ID.
	Instance int
	// Lost is the number of resident requests frozen by the crash.
	Lost int
	// Reason is the injection's human-readable cause.
	Reason string
}

// ReplicaRecovered reports a crashed replica returning at Time: to active
// service in a static fleet, or to spare (stopped) capacity in an elastic one
// — where the autoscaler re-provisions replacement capacity as if the crash
// had been an organic scale-down.
type ReplicaRecovered struct {
	EventMeta
	// Instance is the recovered serving instance's ID.
	Instance int
	// Downtime is the failure span in simulated seconds.
	Downtime float64
}

// RequestRetried reports a lost request re-entering service: failure
// detection harvested it off a crashed replica and, after its backoff, the
// recovery path re-dispatched it (reset to scratch — lost KV is recomputed,
// and TTFT/TPOT still measure from the original arrival). Time is the
// re-dispatch instant.
type RequestRetried struct {
	EventMeta
	Req *request.Request
	// Instance is the replica the retry landed on.
	Instance int
	// Attempt is the request's retry ordinal (1 = first retry).
	Attempt int
}

// RequestMigrated reports a request's KV state landing on another replica:
// the prefill-to-decode handoff of a disaggregated cluster, or a drain
// migration off a scaling-down replica. Depart is when the request left the
// source (prefill completion / drain decision); Time is the delivery instant
// at the destination, so Time − Depart is the transfer's in-flight window —
// the KV-transfer span of a request's observability timeline.
type RequestMigrated struct {
	EventMeta
	Req *request.Request
	// From and To are the source and destination serving instances.
	From, To int
	// Depart is the instant the request left the source replica.
	Depart float64
	// Bytes is the KV payload priced over the interconnect (0 for drain
	// migrations of still-queued requests, which carry no KV).
	Bytes float64
}

// RequestHedged reports a duplicate dispatch for a request whose TTFT
// deadline is at risk on a suspect (stalled or crashed-but-undetected)
// replica: a clone races on another active replica, first finish wins, and
// the loser is cancelled — but billed, having consumed real capacity. Time is
// the hedge instant.
type RequestHedged struct {
	EventMeta
	Req *request.Request
	// Instance is the replica the hedge duplicate landed on.
	Instance int
}

// FaultActionKind discriminates the actions a FaultInjector reports.
type FaultActionKind int

const (
	// FaultReplicaFailed: an injected crash halted a replica.
	FaultReplicaFailed FaultActionKind = iota
	// FaultReplicaRecovered: a crashed replica returned.
	FaultReplicaRecovered
	// FaultRequestRetried: a lost request was re-dispatched.
	FaultRequestRetried
	// FaultRequestHedged: a duplicate dispatch was launched.
	FaultRequestHedged
)

// FaultAction is one fault-lifecycle occurrence a FaultInjector took between
// ticks; the driver wraps each in the matching event so the stream carries
// the full failure history.
type FaultAction struct {
	Kind FaultActionKind
	// Time is the simulated instant of the underlying occurrence (the fault
	// schedule's instant, not the tick that drained it).
	Time float64
	// Instance is the affected serving instance.
	Instance int
	// Req is the affected request (retry and hedge actions).
	Req *request.Request
	// Attempt is the retry ordinal; Lost the resident requests frozen by a
	// crash; Downtime the failure span closed by a recovery.
	Attempt  int
	Lost     int
	Downtime float64
	// Reason is the injection's human-readable cause.
	Reason string
}

// FaultInjector drives fault injection and recovery while a run executes.
// The driver subscribes it to the event stream ahead of every other observer
// and calls Tick at every iteration boundary with the processed-time
// high-water mark and the run's delivery queue; the implementation schedules
// its injections and recovery steps on the queue at exact instants
// (interleaved deterministically with arrivals and migrations) and returns
// the actions taken since the last tick for the driver to emit as events.
//
// Implementations must be deterministic and single-use, like the backends
// they disrupt.
type FaultInjector interface {
	Observer
	Tick(now float64, q *Queue) []FaultAction
}

// AdmissionDecision classifies one arrival at the admission gate.
type AdmissionDecision int

const (
	// AdmissionAdmit serves the request as submitted.
	AdmissionAdmit AdmissionDecision = iota
	// AdmissionDegrade admits the request at reduced service: best-effort
	// class, speculation disabled.
	AdmissionDegrade
	// AdmissionReject turns the request away without dispatching it.
	AdmissionReject
)

// String implements fmt.Stringer.
func (d AdmissionDecision) String() string {
	switch d {
	case AdmissionAdmit:
		return "admit"
	case AdmissionDegrade:
		return "degrade"
	case AdmissionReject:
		return "reject"
	default:
		return fmt.Sprintf("AdmissionDecision(%d)", int(d))
	}
}

// AdmissionController closes the serving control loop: it observes the
// event stream, gates every arrival before the backend routes it, and
// retunes the speculation envelope of the systems it controls at iteration
// boundaries. Wire one into a run via serve.Options.Adaptive; the driver
// subscribes it after the autoscaler and ahead of user observers.
//
// Implementations must be deterministic and single-use, like the backends
// they control.
type AdmissionController interface {
	Observer
	// Decide classifies an arrival before dispatch. On AdmissionDegrade the
	// controller must already have applied the degradation to the request
	// (request.Degrade — the one sanctioned pre-admission mutation); on
	// AdmissionReject the driver drops the request without dispatching it.
	// The returned reason annotates the emitted event.
	Decide(r *request.Request) (AdmissionDecision, string)
	// Tick runs closed-loop actuation at an iteration boundary; now is the
	// driver's processed-time high-water mark.
	Tick(now float64)
}

// Observer receives every event of a run. Observers registered on a Server
// are invoked synchronously, in registration order, for each event in
// delivery order; they must not mutate requests or serving state.
type Observer interface {
	OnEvent(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// OnEvent implements Observer.
func (f ObserverFunc) OnEvent(ev Event) { f(ev) }
