package autoscale

import (
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
)

// fakeSys is the minimal sched.System for controller tests (the controller
// reads pools and actuates lifecycle; it never iterates).
type fakeSys struct{ pool *request.Pool }

func newFake() *fakeSys                                 { return &fakeSys{pool: request.NewPool()} }
func (f *fakeSys) Name() string                         { return "fake" }
func (f *fakeSys) Pool() *request.Pool                  { return f.pool }
func (f *fakeSys) Release(*request.Request)             {}
func (f *fakeSys) Iterate(float64) sched.IterationStats { return sched.IterationStats{Idle: true} }

func elasticCluster(t *testing.T, roles []cluster.Role, initial int) *cluster.Cluster {
	t.Helper()
	systems := make([]sched.System, len(roles))
	for i := range systems {
		systems[i] = newFake()
	}
	transfer := gpu.KVTransfer{Model: gpu.Llama1B, Link: gpu.RDMA400}
	cl, err := cluster.NewElastic(systems, roles, cluster.NewRoundRobin(), transfer,
		cluster.ElasticOptions{ColdStart: 0, InitialActive: initial})
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

func mixedRoles(n int) []cluster.Role { return make([]cluster.Role, n) }

// fixedPolicy always wants the same committed count.
type fixedPolicy struct{ want int }

func (fixedPolicy) Name() string          { return "fixed" }
func (p fixedPolicy) desired(signals) int { return p.want }

// capturePolicy records the signals it was asked about.
type capturePolicy struct {
	seen []signals
	want int
}

func (*capturePolicy) Name() string { return "capture" }
func (p *capturePolicy) desired(sig signals) int {
	p.seen = append(p.seen, sig)
	return p.want
}

func TestPolicyDesired(t *testing.T) {
	base := signals{committed: 2}

	tq := targetQueue{tokensPerReplica: 100}
	for _, c := range []struct{ queued, want int }{{0, 0}, {1, 1}, {100, 1}, {101, 2}, {1000, 10}} {
		sig := base
		sig.queuedTokens = c.queued
		if got := tq.desired(sig); got != c.want {
			t.Errorf("target-queue Desired(queued=%d) = %d, want %d", c.queued, got, c.want)
		}
	}

	rp := rateProportional{headroom: 1.0}
	sig := base
	sig.arrivalRate = 9
	if got := rp.desired(sig); got != 2 {
		t.Errorf("uncalibrated rate-prop moved the fleet: %d", got)
	}
	sig.serviceRate = 2 // 9 req/s over 2 req/s/replica -> 5 replicas
	if got := rp.desired(sig); got != 5 {
		t.Errorf("rate-prop Desired = %d, want 5", got)
	}
	if u := sig.utilization(); u != 9.0/4.0 {
		t.Errorf("utilization %g, want 2.25", u)
	}

	sf := sloFeedback{target: 0.9, headroom: 0.5}
	low := sig
	low.windowFinished = 10
	low.windowAttainment = 0.99
	low.windowTTFTAttainment = 0.5 // the worse signal drives the decision
	if got := sf.desired(low); got != 3 {
		t.Errorf("slo-feedback under attainment pressure = %d, want committed+1 = 3", got)
	}
	idle := base
	idle.windowFinished = 10
	idle.windowAttainment = 1
	idle.windowTTFTAttainment = 1
	idle.serviceRate = 10
	idle.arrivalRate = 1 // utilization 0.05 < 0.5 headroom
	if got := sf.desired(idle); got != 1 {
		t.Errorf("slo-feedback under headroom = %d, want committed-1 = 1", got)
	}
	busy := idle
	busy.arrivalRate = 15 // utilization 0.75: healthy and busy
	if got := sf.desired(busy); got != 2 {
		t.Errorf("slo-feedback steady = %d, want committed = 2", got)
	}
}

func TestNewPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name)
		if err != nil || p.Name() != name {
			t.Errorf("NewPolicy(%q) = %v, %v", name, p, err)
		}
	}
	if _, err := NewPolicy("nope"); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("unknown policy error = %v", err)
	}
}

func TestNewValidates(t *testing.T) {
	cl := elasticCluster(t, mixedRoles(2), 1)
	if _, err := New(nil, fixedPolicy{1}, Options{}); err == nil {
		t.Error("accepted nil cluster")
	}
	if _, err := New(cl, nil, Options{}); err == nil {
		t.Error("accepted nil policy")
	}
	if _, err := New(cl, fixedPolicy{1}, Options{Interval: -1}); err == nil {
		t.Error("accepted negative interval")
	}
	staticSys := []sched.System{newFake(), newFake()}
	static, err := cluster.New(staticSys, cluster.NewRoundRobin())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(static, fixedPolicy{1}, Options{}); err == nil {
		t.Error("accepted a static cluster")
	}
}

func TestTickPacingAndUpStep(t *testing.T) {
	cl := elasticCluster(t, mixedRoles(5), 1)
	ctrl, err := New(cl, fixedPolicy{5}, Options{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q serve.Queue
	if acts := ctrl.Tick(0.5, &q); acts != nil {
		t.Fatalf("decision before the first grid instant: %+v", acts)
	}
	acts := ctrl.Tick(1.0, &q)
	if len(acts) != defaultUpStep || !acts[0].Up || acts[0].Fleet != 2 || acts[1].Fleet != 3 || acts[0].Policy != "fixed" {
		t.Fatalf("first decision = %+v, want %d scale-ups to fleet 3", acts, defaultUpStep)
	}
	if acts := ctrl.Tick(1.4, &q); acts != nil {
		t.Fatalf("off-grid tick acted: %+v", acts)
	}
	if acts := ctrl.Tick(2.0, &q); len(acts) != defaultUpStep {
		t.Fatalf("second grid decision = %+v, want %d scale-ups (cooldown elapsed)", acts, defaultUpStep)
	}
	if cl.CommittedFleet() != 5 {
		t.Fatalf("fleet %d after two up-steps, want 5", cl.CommittedFleet())
	}
	// At capacity the pool stops growing, whatever the policy wants.
	if acts := ctrl.Tick(3.0, &q); len(acts) != 0 {
		t.Fatalf("decision at capacity = %+v, want none", acts)
	}
}

func TestCooldownsBlockLateDecisions(t *testing.T) {
	// A decision lands at the first tick past its grid instant, so two
	// decisions can fall closer than one interval. The up cooldown (one
	// interval) and the down cooldown (three) then hold the pool still.
	up := elasticCluster(t, mixedRoles(8), 1)
	ctrl, err := New(up, fixedPolicy{8}, Options{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q serve.Queue
	for _, c := range []struct {
		now  float64
		acts int
	}{{1.9, defaultUpStep}, {2.0, 0}, {3.0, defaultUpStep}} {
		if acts := ctrl.Tick(c.now, &q); len(acts) != c.acts {
			t.Fatalf("up decision at %g = %+v, want %d actions", c.now, acts, c.acts)
		}
	}

	down := elasticCluster(t, mixedRoles(4), 4)
	ctrl, err = New(down, fixedPolicy{0}, Options{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		now  float64
		acts int
	}{{1, 0}, {2, 0}, {3.9, 1}, {4, 0}, {5, 0}, {6, 0}, {7, 1}} {
		if acts := ctrl.Tick(c.now, &q); len(acts) != c.acts {
			t.Fatalf("down decision at %g = %+v, want %d actions", c.now, acts, c.acts)
		}
	}
	if down.CommittedFleet() != 2 {
		t.Fatalf("fleet %d after two down-steps, want 2", down.CommittedFleet())
	}
}

func TestDownStableAndMinClamp(t *testing.T) {
	cl := elasticCluster(t, mixedRoles(3), 3)
	ctrl, err := New(cl, fixedPolicy{0}, Options{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q serve.Queue
	for i, wantActs := range []int{0, 0, 1, 0, 0, 1} {
		now := float64(i + 1)
		acts := ctrl.Tick(now, &q)
		if len(acts) != wantActs {
			t.Fatalf("tick %d: %d actions, want %d", i+1, len(acts), wantActs)
		}
		for _, a := range acts {
			if a.Up {
				t.Fatalf("tick %d scaled up under a zero-desire policy", i+1)
			}
		}
	}
	// desired 0 clamps to minPerPool, so the fleet never empties.
	if cl.CommittedFleet() != minPerPool {
		t.Fatalf("fleet %d, want clamped floor 1", cl.CommittedFleet())
	}
	for i := 0; i < 9; i++ {
		ctrl.Tick(float64(10+i), &q)
	}
	if cl.CommittedFleet() != 1 {
		t.Fatalf("fleet shrank below the per-pool floor: %d", cl.CommittedFleet())
	}
}

func TestSharedBudgetPrefillPriority(t *testing.T) {
	roles := []cluster.Role{cluster.RolePrefill, cluster.RolePrefill, cluster.RoleDecode, cluster.RoleDecode}
	cl := elasticCluster(t, roles, 1)
	// Both pools want more than they have: the prefill pool acts first, so
	// its scale-up leads the decision's actions, and the fleet stops at its
	// built capacity.
	ctrl, err := New(cl, fixedPolicy{3}, Options{Interval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var q serve.Queue
	acts := ctrl.Tick(1.0, &q)
	if len(acts) != 2 || acts[0].Role != "prefill" || acts[1].Role != "decode" {
		t.Fatalf("decision = %+v, want a prefill then a decode scale-up", acts)
	}
	for _, role := range []cluster.Role{cluster.RolePrefill, cluster.RoleDecode} {
		if pc := cl.CountPool(role); pc.Active+pc.Provisioning != 2 {
			t.Fatalf("%s pool committed %d, want its capacity 2", role, pc.Active+pc.Provisioning)
		}
	}
	if acts := ctrl.Tick(2.0, &q); len(acts) != 0 || cl.CommittedFleet() != cl.Size() {
		t.Fatalf("decision at capacity = %+v (fleet %d), want none at %d", acts, cl.CommittedFleet(), cl.Size())
	}
}

func TestSignalsFromEvents(t *testing.T) {
	cl := elasticCluster(t, mixedRoles(2), 1)
	pol := &capturePolicy{want: 1}
	ctrl, err := New(cl, pol, Options{Interval: 1, Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Four arrivals land in the window; two finish (attaining) before the
	// decision.
	for i := 0; i < 4; i++ {
		arrival := 0.5 + 0.1*float64(i)
		r := request.New(i, request.Chat, 1.0, arrival, 8, 1, uint64(i)+1)
		ctrl.OnEvent(serve.RequestAdmitted{Req: r})
		if i < 2 {
			r.Phase = request.Decoding
			r.PrefillDone = r.PromptLen
			r.FirstDecodeTime = arrival
			r.Commit([]lm.Token{1}, arrival+0.2)
			ctrl.OnEvent(serve.RequestFinished{Req: r, Attained: true})
		}
	}
	var q serve.Queue
	ctrl.Tick(2.0, &q)
	if len(pol.seen) != 1 {
		t.Fatalf("policy consulted %d times, want 1", len(pol.seen))
	}
	sig := pol.seen[0]
	if sig.arrivalRate != 4/2.0 {
		t.Fatalf("arrival rate %g, want 2 (4 arrivals over the 2s elapsed span)", sig.arrivalRate)
	}
	if sig.serviceRate <= 0 {
		t.Fatal("service rate not calibrated from finishes")
	}
	if sig.windowFinished != 2 {
		t.Fatalf("window finished %d, want 2", sig.windowFinished)
	}
	if sig.committed != 1 {
		t.Fatalf("occupancy signals wrong: %+v", sig)
	}

}
