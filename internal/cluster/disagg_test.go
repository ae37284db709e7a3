package cluster

import (
	"strings"
	"testing"

	"adaserve/internal/gpu"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/sched"
)

// roleFake is a role-aware fakeSystem: in prefill mode it only completes
// prompts (never commits output tokens); in decode/mixed mode it behaves
// like fakeSystem. released records Release calls so tests can check the
// driver frees source-side state at migration.
type roleFake struct {
	fakeSystem
	prefillOnly bool
	released    []int
}

func newRoleFake(name string, prefillOnly bool) *roleFake {
	return &roleFake{fakeSystem: *newFake(name), prefillOnly: prefillOnly}
}

func (f *roleFake) Release(r *request.Request) { f.released = append(f.released, r.ID) }

func (f *roleFake) Iterate(now float64) sched.IterationStats {
	if !f.prefillOnly {
		return f.fakeSystem.Iterate(now)
	}
	for _, r := range append([]*request.Request(nil), f.pool.Waiting()...) {
		f.pool.Admit(r, now)
	}
	running := f.pool.Running()
	work := false
	for _, r := range running {
		if r.Phase == request.Prefilling {
			work = true
		}
	}
	if !work {
		return sched.IterationStats{Idle: true}
	}
	elapsed := 0.010 + 0.001*float64(len(running))
	for _, r := range running {
		if r.Phase == request.Prefilling {
			r.PrefillDone = r.PromptLen
			r.Phase = request.Decoding
		}
	}
	return sched.IterationStats{Elapsed: elapsed, PrefillTime: elapsed}
}

// testTransfer is a KV-transfer model with easily predictable latency.
func testTransfer(fixed float64) gpu.KVTransfer {
	return gpu.KVTransfer{
		Model: gpu.Llama1B,
		Link:  gpu.Interconnect{Name: "test", Bandwidth: 1e15, Latency: fixed},
	}
}

func disaggFakes(t *testing.T, roles []Role, router Router, transfer gpu.KVTransfer) (*Cluster, []*roleFake) {
	t.Helper()
	fakes := make([]*roleFake, len(roles))
	systems := make([]sched.System, len(roles))
	for i, role := range roles {
		fakes[i] = newRoleFake("fake", role == RolePrefill)
		systems[i] = fakes[i]
	}
	c, err := NewWithRoles(systems, roles, router, transfer)
	if err != nil {
		t.Fatal(err)
	}
	return c, fakes
}

func TestParseSplit(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want string
		n    int
	}{
		{"2P2D", "2P2D", 4},
		{"1p3d", "1P3D", 4},
		{"3P1D", "3P1D", 4},
		{"mixed4", "colocated", 4},
		{"colocated", "", 0}, // not parseable: ParseSplit wants counts
	} {
		roles, err := ParseSplit(tc.spec)
		if tc.want == "" {
			if err == nil {
				t.Errorf("ParseSplit(%q) accepted", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSplit(%q): %v", tc.spec, err)
			continue
		}
		if len(roles) != tc.n || splitName(roles) != tc.want {
			t.Errorf("ParseSplit(%q) = %v (%s), want %d roles named %s",
				tc.spec, roles, splitName(roles), tc.n, tc.want)
		}
	}
	for _, bad := range []string{"", "PD", "0P2D", "2P0D", "2D2P", "xPyD", "mixed0", "2P2D3"} {
		if _, err := ParseSplit(bad); err == nil {
			t.Errorf("ParseSplit(%q) accepted", bad)
		}
	}
}

func TestNewWithRolesValidates(t *testing.T) {
	mk := func(n int) []sched.System {
		systems := make([]sched.System, n)
		for i := range systems {
			systems[i] = newFake("f")
		}
		return systems
	}
	if _, err := NewWithRoles(mk(2), []Role{RolePrefill}, NewRoundRobin(), testTransfer(0)); err == nil {
		t.Error("role/replica count mismatch accepted")
	}
	if _, err := NewWithRoles(mk(2), []Role{RolePrefill, RolePrefill}, NewRoundRobin(), testTransfer(0)); err == nil {
		t.Error("all-prefill cluster accepted (no decode-capable replica)")
	}
	if _, err := NewWithRoles(mk(2), []Role{RoleDecode, RoleDecode}, NewRoundRobin(), testTransfer(0)); err == nil {
		t.Error("all-decode cluster accepted (no prefill-capable replica)")
	}
	if _, err := NewWithRoles(mk(2), []Role{RolePrefill, RoleDecode}, NewRoundRobin(), gpu.KVTransfer{}); err == nil {
		t.Error("disaggregated cluster accepted without a transfer model")
	}
	// All-mixed clusters need no transfer model.
	if _, err := NewWithRoles(mk(2), nil, NewRoundRobin(), gpu.KVTransfer{}); err != nil {
		t.Errorf("colocated cluster rejected: %v", err)
	}
}

func TestDisaggMigratesEveryRequest(t *testing.T) {
	c, fakes := disaggFakes(t, []Role{RolePrefill, RoleDecode, RoleDecode}, NewRoundRobin(), testTransfer(0.001))
	reqs := mkReqs(12, 0.005, 4)
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		if r.Phase != request.Done || r.OutputLen() != 4 {
			t.Fatalf("request %d phase %s len %d", r.ID, r.Phase, r.OutputLen())
		}
	}
	reps := c.Replicas()
	if len(reps[0].routed) != 12 || len(reps[0].migrated) != 0 {
		t.Fatalf("prefill replica routed %d / migrated %d, want 12 / 0", len(reps[0].routed), len(reps[0].migrated))
	}
	if got := len(reps[1].migrated) + len(reps[2].migrated); got != 12 {
		t.Fatalf("decode replicas received %d migrations, want 12", got)
	}
	if len(reps[1].routed)+len(reps[2].routed) != 0 {
		t.Fatal("arrivals routed to decode-only replicas")
	}
	if len(fakes[0].released) != 12 {
		t.Fatalf("source released %d requests, want 12", len(fakes[0].released))
	}
	if res.Summary.Transfer.Count != 12 || res.Summary.Transfer.Time <= 0 || res.Summary.Transfer.Bytes <= 0 {
		t.Fatalf("transfer stats %+v", res.Summary.Transfer)
	}
	// No output token may be committed by the prefill replica: every
	// request's tokens are fake decode tokens carrying its ID, committed on
	// replica 1 or 2 only (structurally guaranteed by roleFake, checked via
	// FirstDecodeTime below).
	for _, r := range reqs {
		if r.FirstDecodeTime < 0 || r.FirstTokenTime < r.FirstDecodeTime {
			t.Fatalf("request %d decode bookkeeping: first decode %g, first token %g",
				r.ID, r.FirstDecodeTime, r.FirstTokenTime)
		}
	}
}

func TestDisaggTransferLatencyDelaysFirstDecode(t *testing.T) {
	// One request, 1P+1D, a 3-second fixed link latency: the decode replica
	// must not start decoding before prefill end + 3s, and the TTFT must
	// absorb the transfer.
	const lat = 3.0
	c, _ := disaggFakes(t, []Role{RolePrefill, RoleDecode}, NewRoundRobin(), testTransfer(lat))
	r := request.New(1, request.Chat, 0.05, 0, 16, 4, 1)
	r.TTFTSLO = 1.0
	if _, err := replayTrace(c, []*request.Request{r}); err != nil {
		t.Fatal(err)
	}
	if r.Phase != request.Done {
		t.Fatalf("phase %s", r.Phase)
	}
	// Prefill takes one ~11ms fake iteration; decode must start at >= lat.
	if r.FirstDecodeTime < lat {
		t.Fatalf("first decode at %.3f, before transfer completed at >= %.3f", r.FirstDecodeTime, lat)
	}
	if ttft := r.TTFT(); ttft < lat {
		t.Fatalf("TTFT %.3f does not include the %.1fs transfer", ttft, lat)
	}
	if r.AttainedTTFT() {
		t.Fatal("TTFT SLO of 1s attained despite 3s transfer")
	}
}

func TestDisaggRoleStats(t *testing.T) {
	c, _ := disaggFakes(t, []Role{RolePrefill, RoleDecode}, NewRoundRobin(), testTransfer(0.0001))
	reqs := mkReqs(8, 0.005, 3)
	for _, r := range reqs {
		r.TTFTSLO = 10 // generous: all attain
	}
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	roles := res.Summary.Roles
	if len(roles) != 2 || roles[0].Role != "prefill" || roles[1].Role != "decode" {
		t.Fatalf("role stats %+v", roles)
	}
	p, d := roles[0], roles[1]
	if p.PrefillRequests != 8 || p.DecodeRequests != 0 || p.TTFTAttained != 8 {
		t.Fatalf("prefill role stats %+v", p)
	}
	if d.DecodeRequests != 8 || d.PrefillRequests != 0 || d.TPOTAttained != 8 {
		t.Fatalf("decode role stats %+v", d)
	}
	if res.Summary.TTFTAttainment() != 1 {
		t.Fatalf("cluster TTFT attainment %g", res.Summary.TTFTAttainment())
	}
}

func TestDisaggDeterminism(t *testing.T) {
	run := func() (float64, int, []int) {
		c, _ := disaggFakes(t, []Role{RolePrefill, RolePrefill, RoleDecode, RoleDecode},
			&sloAware{}, testTransfer(0.002))
		reqs := mkReqs(40, 0.007, 6)
		res, err := replayTrace(c, reqs)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int
		for _, rep := range c.Replicas() {
			counts = append(counts, len(rep.routed), len(rep.migrated))
		}
		return res.EndTime, res.Iterations, counts
	}
	e1, i1, c1 := run()
	e2, i2, c2 := run()
	if e1 != e2 || i1 != i2 {
		t.Fatalf("runs diverged: (%g,%d) vs (%g,%d)", e1, i1, e2, i2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("routing diverged at %d: %v vs %v", i, c1, c2)
		}
	}
}

func TestDisaggClusterName(t *testing.T) {
	c, _ := disaggFakes(t, []Role{RolePrefill, RoleDecode}, NewRoundRobin(), testTransfer(0))
	if name := c.name(); !strings.Contains(name, "1P1D") {
		t.Fatalf("disaggregated cluster name %q lacks the split", name)
	}
	col := fakeCluster(t, 2, NewRoundRobin())
	if name := col.name(); strings.Contains(name, "P") && strings.Contains(name, "D") && strings.Contains(name, "colocated") {
		t.Fatalf("colocated cluster name %q should not carry a split", name)
	}
}

func TestQueuedPrefillTokens(t *testing.T) {
	c := fakeCluster(t, 1, NewRoundRobin())
	rep := c.Replicas()[0]
	if rep.QueuedPrefillTokens() != 0 {
		t.Fatalf("empty replica has %d queued prefill tokens", rep.QueuedPrefillTokens())
	}
	r := request.New(1, request.Chat, 0.05, 0, 100, 20, 1)
	rep.System().Pool().Enqueue(r)
	if got := rep.QueuedPrefillTokens(); got != 100 {
		t.Fatalf("queued prefill tokens %d, want 100", got)
	}
	r.PrefillDone = 60
	if got := rep.QueuedPrefillTokens(); got != 40 {
		t.Fatalf("queued prefill tokens %d after partial prefill, want 40", got)
	}
}

func TestHybridMixedReplicaAccountsMigrations(t *testing.T) {
	// A hybrid fleet: one dedicated prefill replica plus one mixed replica.
	// The mixed replica decodes both its own arrivals and every migration,
	// and all of them must show up in its summary and in the mixed role's
	// decode accounting.
	c, _ := disaggFakes(t, []Role{RolePrefill, RoleMixed}, NewRoundRobin(), testTransfer(0.001))
	reqs := mkReqs(10, 0.005, 3)
	res, err := replayTrace(c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas()
	routedToMixed := len(reps[1].routed)
	migrated := len(reps[1].migrated)
	if migrated != len(reps[0].routed) || migrated == 0 {
		t.Fatalf("migrations %d, want every prefill-replica arrival (%d)", migrated, len(reps[0].routed))
	}
	if got := res.PerReplica[1].Summary.Requests; got != routedToMixed+migrated {
		t.Fatalf("mixed replica summary covers %d requests, want routed %d + migrated %d",
			got, routedToMixed, migrated)
	}
	var mixed *metrics.RoleStats
	for i := range res.Summary.Roles {
		if res.Summary.Roles[i].Role == "mixed" {
			mixed = &res.Summary.Roles[i]
		}
	}
	if mixed == nil {
		t.Fatal("no mixed role stats")
	}
	if mixed.DecodeRequests != routedToMixed+migrated {
		t.Fatalf("mixed role decoded %d, want %d (own arrivals + migrations)",
			mixed.DecodeRequests, routedToMixed+migrated)
	}
	if mixed.PrefillRequests != routedToMixed {
		t.Fatalf("mixed role prefilled %d, want its %d arrivals", mixed.PrefillRequests, routedToMixed)
	}
}

func TestRoundRobinDecodeCursorIndependent(t *testing.T) {
	c, _ := disaggFakes(t, []Role{RolePrefill, RoleDecode, RoleDecode}, NewRoundRobin(), testTransfer(0))
	reqs := mkReqs(10, 0.005, 2)
	if _, err := replayTrace(c, reqs); err != nil {
		t.Fatal(err)
	}
	reps := c.Replicas()
	// Round-robin over the two decode replicas: migrations alternate 5/5.
	if len(reps[1].migrated) != 5 || len(reps[2].migrated) != 5 {
		t.Fatalf("decode round-robin split %d/%d, want 5/5", len(reps[1].migrated), len(reps[2].migrated))
	}
}
