package serve_test

import (
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// stubInjector scripts one action of every fault kind, verifying the
// driver's FaultInjector contract without any cluster machinery: it must be
// subscribed to the stream ahead of user observers (it captures a request
// from the admission events it sees), ticked with a monotone clock, and its
// actions emitted as fault events stamped with the action instants.
type stubInjector struct {
	ticks   int
	req     *request.Request
	emitted bool
	lastNow float64
}

func (s *stubInjector) OnEvent(ev serve.Event) {
	if e, ok := ev.(serve.RequestAdmitted); ok && s.req == nil {
		s.req = e.Req
	}
}

func (s *stubInjector) Tick(now float64, q *serve.Queue) []serve.FaultAction {
	s.ticks++
	if now < s.lastNow {
		panic("fault injector ticked with a non-monotone clock")
	}
	s.lastNow = now
	if s.emitted || s.req == nil || now < 0.1 {
		return nil
	}
	s.emitted = true
	return []serve.FaultAction{
		{Kind: serve.FaultReplicaFailed, Time: now, Instance: 0, Lost: 2, Reason: "scripted"},
		{Kind: serve.FaultRequestRetried, Time: now, Instance: 0, Req: s.req, Attempt: 1},
		{Kind: serve.FaultRequestHedged, Time: now, Instance: 0, Req: s.req},
		{Kind: serve.FaultReplicaRecovered, Time: now, Instance: 0, Downtime: 0.5},
	}
}

func TestFaultInjectorTickAndEvents(t *testing.T) {
	inj := &stubInjector{}
	srv, err := serve.NewServer(serve.SingleSystem(testSystem(t, 1)), serve.Options{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	var events []serve.Event
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) { events = append(events, ev) }))
	src, err := serve.NewTraceSource(mkReqs(10, 0.05))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}
	if inj.ticks == 0 {
		t.Fatal("fault injector never ticked")
	}
	var order []string
	for _, ev := range events {
		switch e := ev.(type) {
		case serve.ReplicaFailed:
			order = append(order, "failed")
			if e.Lost != 2 || e.Reason != "scripted" {
				t.Fatalf("ReplicaFailed %+v lost the action's fields", e)
			}
		case serve.RequestRetried:
			order = append(order, "retried")
			if e.Req != inj.req || e.Attempt != 1 {
				t.Fatalf("RequestRetried %+v lost the action's fields", e)
			}
		case serve.RequestHedged:
			order = append(order, "hedged")
			if e.Req != inj.req {
				t.Fatalf("RequestHedged %+v lost the action's request", e)
			}
		case serve.ReplicaRecovered:
			order = append(order, "recovered")
			if e.Downtime != 0.5 {
				t.Fatalf("ReplicaRecovered %+v lost the action's downtime", e)
			}
		}
	}
	want := []string{"failed", "retried", "hedged", "recovered"}
	if len(order) != len(want) {
		t.Fatalf("fault events %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fault events %v out of action order %v", order, want)
		}
	}
}

// gatedBackend refuses every arrival with ErrNoReplica until open: a fleet
// that is wholly down.
type gatedBackend struct {
	serve.Backend
	open bool
}

func (g *gatedBackend) Dispatch(r *request.Request) (*serve.Instance, error) {
	if !g.open {
		return nil, serve.ErrNoReplica
	}
	return g.Backend.Dispatch(r)
}

// repairAt is a fault injector whose only action is a delivery that opens
// the gate at the given instant (never, when negative).
type repairAt struct {
	g     *gatedBackend
	at    float64
	armed bool
}

func (*repairAt) OnEvent(serve.Event) {}

func (f *repairAt) Tick(_ float64, q *serve.Queue) []serve.FaultAction {
	if !f.armed && f.at >= 0 {
		f.armed = true
		q.Schedule(f.at, 0, func() { f.g.open = true })
	}
	return nil
}

// TestOutageHoldsArrivals pins the driver's answer to a whole-fleet outage:
// arrivals the backend cannot place are held in arrival order and admitted
// at the delivery that ends the outage, then served; an outage that never
// ends leaves them unplaced and counted, instead of aborting the run.
func TestOutageHoldsArrivals(t *testing.T) {
	run := func(repair float64) (*serve.Result, []serve.RequestAdmitted, []*request.Request) {
		g := &gatedBackend{Backend: serve.SingleSystem(testSystem(t, 1))}
		srv, err := serve.NewServer(g, serve.Options{Faults: &repairAt{g: g, at: repair}})
		if err != nil {
			t.Fatal(err)
		}
		var admitted []serve.RequestAdmitted
		srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
			if a, ok := ev.(serve.RequestAdmitted); ok {
				admitted = append(admitted, a)
			}
		}))
		reqs := mkReqs(10, 0.05)
		src, err := serve.NewTraceSource(reqs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(src)
		if err != nil {
			t.Fatalf("outage aborted the run: %v", err)
		}
		return res, admitted, reqs
	}

	res, admitted, reqs := run(0.3)
	if res.Unplaced != 0 || len(admitted) != len(reqs) {
		t.Fatalf("unplaced %d, admitted %d of %d", res.Unplaced, len(admitted), len(reqs))
	}
	for i, a := range admitted {
		want := max(a.Req.ArrivalTime, 0.3)
		if a.Req.ID != i || a.Time != want {
			t.Fatalf("admission %d: request %d at %g, want request %d at %g", i, a.Req.ID, a.Time, i, want)
		}
		if a.Req.Phase != request.Done || a.Req.FirstTokenTime < 0.3 {
			t.Fatalf("request %d not served after the repair: phase %s first token %g", i, a.Req.Phase, a.Req.FirstTokenTime)
		}
	}

	res, admitted, _ = run(-1)
	if res.Unplaced != 10 || len(admitted) != 0 {
		t.Fatalf("permanent outage: unplaced %d, admitted %d, want 10/0", res.Unplaced, len(admitted))
	}
}
