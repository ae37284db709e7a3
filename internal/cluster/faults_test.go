package cluster

import (
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

func TestFailFreezesReplicaAndHarvest(t *testing.T) {
	cl := fakeCluster(t, 2, NewRoundRobin())
	r0 := request.New(0, request.Chat, 0.05, 0.1, 16, 4, 3)
	r1 := request.New(1, request.Chat, 0.05, 0.2, 16, 4, 5)
	pool := cl.Replicas()[0].System().Pool()
	pool.Enqueue(r0)
	pool.Enqueue(r1)

	lost, ok := cl.Fail(0, 1.0)
	if !ok || lost != 2 {
		t.Fatalf("Fail = (%d, %v), want (2, true)", lost, ok)
	}
	rep := cl.Replicas()[0]
	if rep.State() != StateFailed {
		t.Fatalf("state %v, want failed", rep.State())
	}
	if !rep.Instance().Halted() {
		t.Fatal("failed replica's instance not halted")
	}
	if _, ok := cl.Fail(0, 1.5); ok {
		t.Fatal("second crash on a failed replica took effect")
	}

	// A failed replica leaves the committed fleet, the routable sets and the
	// billing integral, but still occupies its pool slot (it is not spare).
	if got := cl.CommittedFleet(); got != 1 {
		t.Fatalf("committed fleet %d, want 1", got)
	}
	pc := cl.CountPool(RoleMixed)
	if pc.failed != 1 || pc.Active != 1 || pc.stopped != 0 || pc.Capacity() != 2 {
		t.Fatalf("pool counts %+v, want 1 failed / 1 active", pc)
	}
	if len(cl.routablePrefill) != 1 || cl.routablePrefill[0].ID() != 1 {
		t.Fatalf("routable prefill set wrong after crash: want only replica 1")
	}
	if got := cl.lifecycleStats(10).ReplicaSeconds; got != 11 {
		t.Fatalf("replica-seconds %g, want 11 (replica 1 for 10s + failed span 1s)", got)
	}

	// The frozen pool harvests exactly once, in pool order.
	harvest := cl.HarvestFailed(0)
	if len(harvest) != 2 || harvest[0] != r0 || harvest[1] != r1 {
		t.Fatalf("harvest = %v, want [r0 r1]", harvest)
	}
	if pool.NumWaiting()+pool.NumRunning() != 0 {
		t.Fatal("harvest left residents behind")
	}
	if again := cl.HarvestFailed(0); len(again) != 0 {
		t.Fatalf("second harvest returned %d requests", len(again))
	}
}

func TestRecoverStaticResumesElasticSpares(t *testing.T) {
	// Static fleet: repair returns the replica to active duty, billing from
	// the repair instant, and re-admits it to the routable sets. A request
	// still frozen (repair beat detection) comes back stranded.
	cl := fakeCluster(t, 2, NewRoundRobin())
	r := request.New(0, request.Chat, 0.05, 0.1, 16, 4, 3)
	cl.Replicas()[0].System().Pool().Enqueue(r)
	if _, ok := cl.Fail(0, 1.0); !ok {
		t.Fatal("crash refused")
	}
	stranded, ok := cl.Recover(0, 2.0)
	if !ok || len(stranded) != 1 || stranded[0] != r {
		t.Fatalf("Recover = (%v, %v), want the stranded request", stranded, ok)
	}
	if cl.Replicas()[0].State() != StateActive {
		t.Fatalf("static repair state %v, want active", cl.Replicas()[0].State())
	}
	if len(cl.routablePrefill) != 2 || cl.routablePrefill[0].ID() != 0 || cl.routablePrefill[1].ID() != 1 {
		t.Fatal("routable set after repair is not both replicas in ID order")
	}
	if got := cl.lifecycleStats(3).ReplicaSeconds; got != 5 {
		t.Fatalf("replica-seconds %g, want 5 (3 + pre-crash 1 + post-repair 1)", got)
	}
	if _, ok := cl.Recover(0, 3.0); ok {
		t.Fatal("recover on a healthy replica took effect")
	}

	// Elastic fleet: the repaired machine rejoins the spare pool — the
	// autoscaler already provisioned its replacement.
	ecl := elasticFake(t, 2, ElasticOptions{ColdStart: 1, InitialActive: 2}, nil)
	if _, ok := ecl.Fail(1, 1.0); !ok {
		t.Fatal("elastic crash refused")
	}
	if _, ok := ecl.Recover(1, 2.5); !ok {
		t.Fatal("elastic recover refused")
	}
	if ecl.Replicas()[1].State() != stateStopped {
		t.Fatalf("elastic repair state %v, want stopped (spare)", ecl.Replicas()[1].State())
	}
	if pc := ecl.CountPool(RoleMixed); pc.stopped != 1 || pc.failed != 0 {
		t.Fatalf("elastic pool counts %+v after repair", pc)
	}
}

func TestFailInvalidatesPendingActivation(t *testing.T) {
	cl := elasticFake(t, 2, ElasticOptions{ColdStart: 5, InitialActive: 1}, nil)
	var q serve.Queue
	rep, ok := cl.ScaleUp(RoleMixed, 1.0, &q)
	if !ok {
		t.Fatal("scale-up refused")
	}
	if _, ok := cl.Fail(rep.ID(), 2.0); !ok {
		t.Fatal("crash on a provisioning replica refused")
	}
	// The queued activation delivery is stale: it must not resurrect the
	// failed replica.
	cl.activate(rep, 6.0)
	if rep.State() != StateFailed {
		t.Fatalf("stale activation flipped a failed replica to %v", rep.State())
	}
}

func TestRedispatchAvoidsSuspect(t *testing.T) {
	cl := fakeCluster(t, 3, routeTo(0))
	r := request.New(0, request.Chat, 0.05, 0.1, 16, 4, 3)
	in, err := cl.Redispatch(r, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.ID() != 1 {
		t.Fatalf("re-dispatch landed on %d, want 1 (replica 0 avoided)", in.ID())
	}
	if len(cl.Replicas()[1].routed) != 1 || len(cl.admitted) != 0 {
		t.Fatal("re-dispatch must count as routed but not re-enter the admitted population")
	}
	// Avoidance is best-effort: with every other replica failed, the suspect
	// is still better than dropping the request.
	cl.Fail(1, 2.0)
	cl.Fail(2, 2.0)
	r2 := request.New(1, request.Chat, 0.05, 0.2, 16, 4, 5)
	in2, err := cl.Redispatch(r2, 2.5, 0)
	if err != nil || in2.ID() != 0 {
		t.Fatalf("Redispatch = (%v, %v), want the avoided survivor", in2, err)
	}
	// Total outage: nothing routable.
	cl.Fail(0, 3.0)
	if _, err := cl.Redispatch(r2, 3.5, -1); err == nil {
		t.Fatal("re-dispatch succeeded with every replica failed")
	}
}

func TestEvictAndAdoptOutcome(t *testing.T) {
	cl := fakeCluster(t, 2, routeTo(0))
	orig := request.New(3, request.Chat, 0.05, 0.1, 16, 4, 3)
	if _, err := cl.Dispatch(orig); err != nil {
		t.Fatal(err)
	}
	shadow := orig.Clone()
	shadow.ID = orig.ID + 1<<28
	if _, err := cl.Redispatch(shadow, 0.5, 0); err != nil {
		t.Fatal(err)
	}

	// The shadow finishes first (simulated): the original is cancelled off
	// its losing replica and adopts the shadow's outcome on the winner.
	shadow.Phase = request.Done
	shadow.FirstTokenTime = 0.8
	shadow.DoneTime = 1.2
	cl.Replicas()[1].System().Pool().Remove(shadow) // the scheduler retired it
	if !cl.Evict(orig) {
		t.Fatal("eviction missed the resident original")
	}
	if len(cl.Replicas()[0].routed) != 0 {
		t.Fatal("evicted request still in placement stats")
	}
	cl.AdoptOutcome(orig, shadow, 1)
	if orig.Phase != request.Done || orig.DoneTime != 1.2 || orig.FirstTokenTime != 0.8 {
		t.Fatalf("adoption did not copy the outcome: %+v", orig)
	}
	if len(cl.Replicas()[1].routed) != 1 {
		t.Fatalf("winner owns %d routed requests, want 1 (shadow swapped for original)", len(cl.Replicas()[1].routed))
	}
	done := cl.Replicas()[1].System().Pool().Done()
	if len(done) != 1 || done[0] != orig {
		t.Fatalf("winner pool done list %v, want the adopted original", done)
	}
	if cl.Evict(shadow) {
		t.Fatal("evicted a request that is no longer resident")
	}
	if len(cl.admitted) != 1 {
		t.Fatalf("admitted population %d, want 1", len(cl.admitted))
	}
}

func TestLinkFaultWindows(t *testing.T) {
	cl := fakeCluster(t, 2, nil)
	cl.SetLinkWindows([]LinkWindow{
		{From: 1, To: 2, FailProb: 1, Factor: 2, Seed: 9},
		{From: 5, To: 6, Factor: 3, Seed: 9},
	})
	// Inside the first window every migration fails, after paying the
	// degraded latency.
	lat, failed := cl.linkFault(1.5, 7, 0.1)
	if !failed || lat != 0.2 {
		t.Fatalf("linkFault in window = (%g, %v), want (0.2, true)", lat, failed)
	}
	// The second window only degrades.
	lat, failed = cl.linkFault(5.5, 7, 0.1)
	if failed || lat < 0.29 || lat > 0.31 {
		t.Fatalf("degrade-only window = (%g, %v), want (0.3, false)", lat, failed)
	}
	// Outside every window the transfer is clean.
	lat, failed = cl.linkFault(3.0, 7, 0.1)
	if failed || lat != 0.1 {
		t.Fatalf("clean transfer = (%g, %v), want (0.1, false)", lat, failed)
	}
	if cl.LinkFallbacks() != 1 || cl.LinkDegraded() != 2 {
		t.Fatalf("counters fallbacks=%d degraded=%d, want 1 and 2", cl.LinkFallbacks(), cl.LinkDegraded())
	}
	// The per-request coin is a pure function of (seed, request ID).
	w := LinkWindow{FailProb: 0.5, Seed: 42}
	for id := 0; id < 64; id++ {
		if w.fails(id) != w.fails(id) {
			t.Fatal("link coin not deterministic")
		}
	}
}

// TestDeliverReroutesAroundFailedTarget: a migration or drain delivery whose
// target crashed while it was in flight lands on a surviving replica of the
// right capability instead of being lost with the target.
func TestDeliverReroutesAroundFailedTarget(t *testing.T) {
	cl, _ := disaggFakes(t, []Role{RolePrefill, RoleDecode, RoleDecode}, NewRoundRobin(), testTransfer(0.01))
	if _, ok := cl.Fail(1, 0.5); !ok {
		t.Fatal("Fail(1) refused")
	}
	r := request.New(0, request.Chat, 0.05, 0, 16, 4, 3)
	cl.replicas[1].pendingDeliveries++
	cl.deliver(r, cl.replicas[1], 0.6)
	if got := cl.replicas[2].System().Pool().NumWaiting(); got != 1 || len(cl.replicas[2].migrated) != 1 {
		t.Fatalf("decode replica 2 holds %d waiting / %d migrated, want the re-routed request", got, len(cl.replicas[2].migrated))
	}
	if len(cl.replicas[1].migrated) != 0 {
		t.Fatal("delivery landed on the failed decode replica")
	}

	// A drain delivery re-routes among prefill-capable replicas the same way.
	col := fakeCluster(t, 2, NewRoundRobin())
	if _, ok := col.Fail(0, 0.5); !ok {
		t.Fatal("Fail(0) refused")
	}
	col.replicas[0].pendingDeliveries++
	col.deliverRouted(request.New(1, request.Chat, 0.05, 0, 16, 4, 5), col.replicas[0], 0.6)
	if len(col.replicas[1].routed) != 1 || len(col.replicas[0].routed) != 0 {
		t.Fatalf("drain delivery routed to %d/%d, want replica 1 only", len(col.replicas[0].routed), len(col.replicas[1].routed))
	}
}
