// Package obs is the streaming observability layer over the serve event
// stream: per-request span timelines (SpanRecorder, exported as
// Chrome/Perfetto trace-event JSON) and metrics exporters (Prometheus text
// exposition and machine-readable JSON series). The bounded-memory
// histogram the metrics package streams percentiles through lives in the
// obs/hist subpackage.
//
// Everything here is derivation-only: observers never mutate serving state,
// and a run with no observers registered never executes any of this code.
// All output is deterministic — timelines are keyed and ordered by request
// ID, marks by event delivery order — so fixed-seed runs export
// byte-identical traces at any experiment-grid parallelism.
package obs

import (
	"fmt"
	"sort"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// Phase is one contiguous span of a request's lifecycle on one instance.
type Phase struct {
	// Name is the span taxonomy label: "queued", "prefill", "kv-transfer"
	// or "decode".
	Name string `json:"name"`
	// Start and End are simulated seconds.
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	// Instance is the serving instance the phase ran on (the destination,
	// for kv-transfer).
	Instance int `json:"instance"`
}

// mark is one instantaneous annotation on a request's timeline.
type mark struct {
	// Name labels the annotation: "first-token", "commit", "slo-tpot",
	// "slo-ttft", "degraded", "rejected", "retry" or "hedged".
	Name string  `json:"name"`
	Time float64 `json:"time"`
	// Instance is the serving instance the annotation concerns (-1 when none
	// is involved, e.g. a rejection at the gate).
	Instance int `json:"instance"`
	// Detail carries the human-readable payload (gate reason, retry attempt,
	// degrade transition); Tokens the commit size for "commit" marks.
	Detail string `json:"detail,omitempty"`
	Tokens int    `json:"tokens,omitempty"`
}

// migration is one recorded KV movement to replica to, kept until phase
// assembly.
type migration struct {
	to             int
	depart, arrive float64
}

// Timeline is one request's assembled span timeline.
type Timeline struct {
	// ID is the request ID; Class the SLO class the request arrived with
	// (the pre-degradation class for degraded requests).
	ID    int    `json:"id"`
	Class string `json:"class"`
	// DegradedTo is the class an overload gate relaxed the request to
	// ("" when not degraded).
	DegradedTo string  `json:"degradedTo,omitempty"`
	Arrival    float64 `json:"arrival"`
	// Finish is the request's DoneTime (-1 for rejected requests, which
	// never enter service).
	Finish   float64 `json:"finish"`
	Rejected bool    `json:"rejected,omitempty"`
	// Attained/TTFTAttained are the SLO outcomes from RequestFinished.
	Attained     bool `json:"attained"`
	TTFTAttained bool `json:"ttftAttained"`
	// Retries and Hedges count fault-recovery re-dispatches and duplicate
	// dispatches observed for this request.
	Retries int `json:"retries,omitempty"`
	Hedges  int `json:"hedges,omitempty"`
	// Phases are the contiguous lifecycle spans in time order; Marks the
	// instantaneous annotations in event-delivery order.
	Phases []Phase `json:"phases"`
	Marks  []mark  `json:"marks"`

	admitInstance int
	migrations    []migration
}

// SpanRecorder is a serve.Observer that assembles per-request span
// timelines from the event stream: queued → prefill → KV-transfer → decode,
// with verify-step commits and retry/hedge/degrade/reject annotations.
// Subscribe one to a serve.Server (or pass it through cluster/experiment
// wiring) and export with WriteTrace after the run.
type SpanRecorder struct {
	live map[int]*Timeline
	done []*Timeline
}

// NewSpanRecorder returns an empty recorder.
func NewSpanRecorder() *SpanRecorder {
	return &SpanRecorder{live: make(map[int]*Timeline)}
}

// timeline fetches or creates the request's in-flight timeline.
func (sr *SpanRecorder) timeline(r *request.Request) *Timeline {
	tl := sr.live[r.ID]
	if tl == nil {
		tl = &Timeline{ID: r.ID, Class: r.Category.String(), Arrival: r.ArrivalTime, Finish: -1, admitInstance: -1}
		sr.live[r.ID] = tl
	}
	return tl
}

// OnEvent implements serve.Observer.
func (sr *SpanRecorder) OnEvent(ev serve.Event) {
	switch e := ev.(type) {
	case serve.RequestDegraded:
		// Precedes the RequestAdmitted for the same request: pin the class
		// the request arrived with before the gate rewrote it.
		tl := sr.timeline(e.Req)
		tl.Class = e.From.String()
		tl.DegradedTo = e.To.String()
		tl.Marks = append(tl.Marks, mark{
			Name: "degraded", Time: e.Time, Instance: -1,
			Detail: fmt.Sprintf("%s→%s: %s", e.From, e.To, e.Reason),
		})
	case serve.RequestAdmitted:
		tl := sr.timeline(e.Req)
		tl.admitInstance = e.Instance
	case serve.RequestRejected:
		tl := sr.timeline(e.Req)
		tl.Rejected = true
		tl.Marks = append(tl.Marks, mark{Name: "rejected", Time: e.Time, Instance: -1, Detail: e.Reason})
		sr.retire(tl)
	case serve.RequestMigrated:
		tl := sr.timeline(e.Req)
		tl.migrations = append(tl.migrations, migration{to: e.To, depart: e.Depart, arrive: e.Time})
	case serve.FirstToken:
		tl := sr.timeline(e.Req)
		tl.Marks = append(tl.Marks, mark{Name: "first-token", Time: e.Time, Instance: e.Instance})
	case serve.TokensCommitted:
		tl := sr.timeline(e.Req)
		tl.Marks = append(tl.Marks, mark{Name: "commit", Time: e.Time, Instance: e.Instance, Tokens: e.Tokens})
	case serve.SLOViolated:
		tl := sr.timeline(e.Req)
		tl.Marks = append(tl.Marks, mark{Name: "slo-" + e.Kind.String(), Time: e.Time, Instance: e.Instance})
	case serve.RequestRetried:
		tl := sr.timeline(e.Req)
		tl.Retries++
		tl.Marks = append(tl.Marks, mark{
			Name: "retry", Time: e.Time, Instance: e.Instance,
			Detail: fmt.Sprintf("attempt %d", e.Attempt),
		})
	case serve.RequestHedged:
		tl := sr.timeline(e.Req)
		tl.Hedges++
		tl.Marks = append(tl.Marks, mark{Name: "hedged", Time: e.Time, Instance: e.Instance})
	case serve.RequestFinished:
		tl := sr.timeline(e.Req)
		tl.Finish = e.Req.DoneTime
		tl.Attained = e.Attained
		tl.TTFTAttained = e.TTFTAttained
		tl.assemble(e.Req, e.Instance)
		sr.retire(tl)
	}
}

// retire moves a timeline from the live map to the finished list.
func (sr *SpanRecorder) retire(tl *Timeline) {
	delete(sr.live, tl.ID)
	sr.done = append(sr.done, tl)
}

// assemble derives the phase spans from the request's lifecycle timestamps
// and the recorded migrations:
//
//	queued       arrival → first scheduling (AdmitTime)
//	prefill      AdmitTime → prefill departure (first migration after
//	             AdmitTime, else first decode step)
//	kv-transfer  one per recorded migration, departure → delivery
//	decode       first decode step → DoneTime
//
// On a colocated replica there is no migration, so "prefill" runs to the
// first decode step and covers any wait for decode eligibility. Phases with
// unset timestamps (e.g. a request that produced no tokens) are omitted;
// retried requests report their final attempt's phases, with earlier
// attempts visible through their retry marks.
func (tl *Timeline) assemble(r *request.Request, finishInstance int) {
	if r.AdmitTime >= 0 && r.AdmitTime >= tl.Arrival {
		tl.Phases = append(tl.Phases, Phase{Name: "queued", Start: tl.Arrival, End: r.AdmitTime, Instance: tl.admitInstance})
	}
	prefillEnd := r.FirstDecodeTime
	for _, m := range tl.migrations {
		if m.depart >= r.AdmitTime && m.depart < prefillEnd {
			prefillEnd = m.depart
			break
		}
	}
	if r.AdmitTime >= 0 && prefillEnd >= r.AdmitTime {
		tl.Phases = append(tl.Phases, Phase{Name: "prefill", Start: r.AdmitTime, End: prefillEnd, Instance: tl.admitInstance})
	}
	for _, m := range tl.migrations {
		tl.Phases = append(tl.Phases, Phase{Name: "kv-transfer", Start: m.depart, End: m.arrive, Instance: m.to})
	}
	if r.FirstDecodeTime >= 0 && r.DoneTime >= r.FirstDecodeTime {
		tl.Phases = append(tl.Phases, Phase{Name: "decode", Start: r.FirstDecodeTime, End: r.DoneTime, Instance: finishInstance})
	}
}

// Timelines returns every retired timeline sorted by request ID. Requests
// still in flight (an aborted run) are not included.
func (sr *SpanRecorder) Timelines() []*Timeline {
	out := append([]*Timeline(nil), sr.done...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
