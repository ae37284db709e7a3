package cluster

import (
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/sched"
)

// loadReplica enqueues a synthetic request with the given outstanding
// output tokens and TPOT SLO onto a replica, to set up router-policy
// scenarios (a 1-token prompt keeps QueuedTokens within 1 of the decode
// load, so both token-based policies see the intended ordering).
func loadReplica(rep *Replica, id, tokens int, slo float64) {
	rep.System().Pool().Enqueue(request.New(id, request.Chat, slo, 0, 1, tokens, uint64(id)+1))
}

func tightReq(id int) *request.Request {
	return request.New(id, request.Coding, 0.030, 0, 16, 4, uint64(id)+1)
}

func relaxedReq(id int) *request.Request {
	return request.New(id, request.Summarization, 0.150, 0, 16, 4, uint64(id)+1)
}

func TestRoundRobinCycles(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	rr := NewRoundRobin()
	want := []int{0, 1, 2, 0, 1, 2, 0}
	for i, w := range want {
		if got := rr.Route(tightReq(i), c.Replicas()); got != w {
			t.Fatalf("pick %d: got replica %d, want %d", i, got, w)
		}
	}
}

func TestLeastLoadedPicksFewestQueuedTokens(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	reps := c.Replicas()
	loadReplica(reps[0], 100, 300, 0.05)
	loadReplica(reps[1], 101, 100, 0.05)
	loadReplica(reps[2], 102, 200, 0.05)
	if got := (LeastLoaded{}).Route(tightReq(1), reps); got != 1 {
		t.Fatalf("picked replica %d, want 1 (lightest)", got)
	}
}

func TestLeastLoadedTieBreaksByLowestIndex(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	reps := c.Replicas()
	loadReplica(reps[0], 100, 200, 0.05)
	// Replicas 1 and 2 tie at 100 tokens: lowest index wins.
	loadReplica(reps[1], 101, 100, 0.05)
	loadReplica(reps[2], 102, 100, 0.05)
	if got := (LeastLoaded{}).Route(tightReq(1), reps); got != 1 {
		t.Fatalf("picked replica %d, want 1 (tie broken by index)", got)
	}
	if got := (LeastLoaded{}).Route(tightReq(2), fakeCluster(t, 4, nil).Replicas()); got != 0 {
		t.Fatalf("picked replica %d on empty cluster, want 0", got)
	}
}

func TestSLOAwareSpreadsTightRequestsByUrgentLoad(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	reps := c.Replicas()
	// Replica 0: heavy urgent load. Replica 1: heavy but relaxed load.
	// Replica 2: moderate urgent load. A tight request must avoid urgent
	// contention (replica 1), not total load (replica 2 is lightest).
	loadReplica(reps[0], 100, 400, 0.030)
	loadReplica(reps[1], 101, 500, 0.150)
	loadReplica(reps[2], 102, 200, 0.030)
	s := &sloAware{}
	if got := s.Route(tightReq(1), reps); got != 1 {
		t.Fatalf("tight request to replica %d, want 1 (zero urgent load)", got)
	}
}

func TestSLOAwareFillsRelaxedWorkByRelaxedLoad(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	reps := c.Replicas()
	// Replica 0: urgent-only load. Replica 1: relaxed load. Replica 2:
	// larger relaxed load. A batch-tolerant request fills the replica with
	// the least batch-tolerant work — replica 0, despite its urgent queue.
	loadReplica(reps[0], 100, 400, 0.030)
	loadReplica(reps[1], 101, 100, 0.150)
	loadReplica(reps[2], 102, 300, 0.150)
	s := &sloAware{}
	if got := s.Route(relaxedReq(1), reps); got != 0 {
		t.Fatalf("relaxed request to replica %d, want 0 (no relaxed load)", got)
	}
}

func TestSLOAwareTieBreaksOnTotalThenCursor(t *testing.T) {
	c := fakeCluster(t, 3, nil)
	reps := c.Replicas()
	// No replica holds urgent work; replica 0 holds two relaxed requests,
	// replicas 1 and 2 one each. A tight request ties on tight residency
	// (0 everywhere) and must take the lowest total residency, scanning
	// from the class cursor (fresh router: replica 0), so replica 1 wins.
	loadReplica(reps[0], 100, 300, 0.150)
	loadReplica(reps[0], 103, 100, 0.150)
	loadReplica(reps[1], 101, 100, 0.150)
	loadReplica(reps[2], 102, 100, 0.150)
	s := &sloAware{}
	if got := s.Route(tightReq(1), reps); got != 1 {
		t.Fatalf("tight request to replica %d, want 1 (lowest total residency)", got)
	}
	// Empty cluster: everything ties, and the fresh cursor starts at 0.
	if got := s.Route(relaxedReq(2), fakeCluster(t, 4, nil).Replicas()); got != 0 {
		t.Fatalf("relaxed request to replica %d on empty cluster, want 0", got)
	}
}

func TestSLOAwareCursorRotatesThroughTies(t *testing.T) {
	// On a persistently tied (empty) cluster the per-class cursors must
	// rotate — per-class round-robin — rather than dog-pile replica 0.
	// Fake replicas stay empty because Route alone never enqueues.
	c := fakeCluster(t, 3, nil)
	s := &sloAware{}
	for i, want := range []int{0, 1, 2, 0} {
		if got := s.Route(tightReq(i), c.Replicas()); got != want {
			t.Fatalf("tight pick %d: replica %d, want %d", i, got, want)
		}
	}
	for i, want := range []int{0, 1, 2, 0} {
		if got := s.Route(relaxedReq(10+i), c.Replicas()); got != want {
			t.Fatalf("relaxed pick %d: replica %d, want %d", i, got, want)
		}
	}
}

func TestSLOAwareCutoffClassifies(t *testing.T) {
	s := &sloAware{}
	c := fakeCluster(t, 2, nil)
	reps := c.Replicas()
	loadReplica(reps[0], 100, 100, defaultTightSLO)      // urgent: the cutoff is inclusive
	loadReplica(reps[1], 101, 50, defaultTightSLO+0.001) // relaxed load on replica 1
	// Just past the cutoff is relaxed: it balances on relaxed load, and
	// replica 0 has none (its queue is all urgent).
	past := request.New(1, request.Chat, defaultTightSLO+0.001, 0, 16, 4, 3)
	if got := s.Route(past, reps); got != 0 {
		t.Fatalf("request past the cutoff routed to %d, want 0", got)
	}
	// At the cutoff is tight: it avoids replica 0's urgent queue.
	at := request.New(2, request.Chat, defaultTightSLO, 0, 16, 4, 4)
	if got := s.Route(at, reps); got != 1 {
		t.Fatalf("request at the cutoff routed to %d, want 1", got)
	}
}

// pressureCluster builds a 3-replica cluster loaded past the SLO-aware
// pressure threshold: every replica holds `tight` urgent requests, and
// replica `islandIdx` additionally holds `relaxed` batch-tolerant ones,
// making it the consolidation island.
func pressureCluster(t *testing.T, tight, relaxed, islandIdx int) *Cluster {
	t.Helper()
	c := fakeCluster(t, 3, nil)
	id := 1000
	for _, rep := range c.Replicas() {
		for k := 0; k < tight; k++ {
			loadReplica(rep, id, 50, 0.030)
			id++
		}
	}
	for k := 0; k < relaxed; k++ {
		loadReplica(c.Replicas()[islandIdx], id, 50, 0.150)
		id++
	}
	return c
}

func TestSLOAwareIslandConsolidatesRelaxedUnderPressure(t *testing.T) {
	// Mean tight residency 10 >= defaultPressureThreshold: the island (the
	// replica with the most relaxed work) absorbs new relaxed requests.
	c := pressureCluster(t, 10, 3, 1)
	s := &sloAware{}
	for i := 0; i < 3; i++ {
		if got := s.Route(relaxedReq(i), c.Replicas()); got != 1 {
			t.Fatalf("relaxed pick %d: replica %d, want island 1", i, got)
		}
	}
}

func TestSLOAwareTightAvoidsIslandUnderPressure(t *testing.T) {
	// Under pressure new tight requests must exclude the island even
	// though the non-island replicas hold equal tight residency.
	c := pressureCluster(t, 10, 3, 1)
	s := &sloAware{}
	for i, want := range []int{0, 2, 0, 2} {
		if got := s.Route(tightReq(i), c.Replicas()); got != want {
			t.Fatalf("tight pick %d: replica %d, want %d (island 1 excluded)", i, got, want)
		}
	}
}

func TestSLOAwareIslandCapFallsBackToSpreading(t *testing.T) {
	// The island holds far more than ConsolidateFactor x mean residency:
	// relaxed traffic must spread to the least-relaxed replica instead.
	c := pressureCluster(t, 10, 60, 1)
	s := &sloAware{}
	if got := s.Route(relaxedReq(1), c.Replicas()); got == 1 {
		t.Fatal("relaxed request packed onto a saturated island")
	}
}

func TestSLOAwareNoIslandBelowPressureOrOnSmallClusters(t *testing.T) {
	// Below the pressure threshold the relaxed stream spreads: replica 1
	// holds the most relaxed work but must not attract more.
	c := pressureCluster(t, 3, 2, 1)
	s := &sloAware{}
	if got := s.Route(relaxedReq(1), c.Replicas()); got == 1 {
		t.Fatal("relaxed request consolidated without urgent pressure")
	}
	// Two-replica clusters never island, whatever the pressure: islanding
	// half the cluster would halve urgent capacity exactly at overload.
	c2 := fakeCluster(t, 2, nil)
	id := 2000
	for _, rep := range c2.Replicas() {
		for k := 0; k < 12; k++ {
			loadReplica(rep, id, 50, 0.030)
			id++
		}
	}
	loadReplica(c2.Replicas()[1], id, 50, 0.150)
	s2 := &sloAware{}
	if got := s2.Route(relaxedReq(3), c2.Replicas()); got == 1 {
		t.Fatal("two-replica cluster consolidated onto an island")
	}
}

func TestNewRouterNames(t *testing.T) {
	for _, name := range RouterNames() {
		r, err := NewRouter(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Name() != name {
			t.Errorf("router %q reports name %q", name, r.Name())
		}
	}
	if _, err := NewRouter("random"); err == nil {
		t.Fatal("unknown router accepted")
	}
}

// proberSystem is a fakeSystem whose KV cache pretends to hold a fixed
// number of cached prompt tokens, to exercise the prefix-affinity policy
// without a real prefix-enabled allocator.
type proberSystem struct {
	*fakeSystem
	cached int
}

func (p *proberSystem) PrefixCachedTokens(*request.Request) int { return p.cached }

func proberCluster(t *testing.T, cached []int) *Cluster {
	t.Helper()
	systems := make([]sched.System, len(cached))
	for i, c := range cached {
		if c < 0 { // a replica whose system is not a PrefixProber at all
			systems[i] = newFake("fake")
			continue
		}
		systems[i] = &proberSystem{fakeSystem: newFake("fake"), cached: c}
	}
	c, err := New(systems, PrefixAffinity{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPrefixAffinityRoutesToLongestCachedPrefix(t *testing.T) {
	c := proberCluster(t, []int{64, 512, 128})
	reps := c.Replicas()
	// Replica 1 holds the longest cached prefix; pile load on it to prove
	// affinity overrides the load signal.
	loadReplica(reps[1], 100, 500, 0.05)
	if got := (PrefixAffinity{}).Route(tightReq(1), reps); got != 1 {
		t.Fatalf("routed to replica %d, want 1 (longest cached prefix)", got)
	}
}

func TestPrefixAffinityTieBreaksLeastLoaded(t *testing.T) {
	c := proberCluster(t, []int{512, 512, 0})
	reps := c.Replicas()
	loadReplica(reps[0], 100, 300, 0.05)
	loadReplica(reps[1], 101, 100, 0.05)
	if got := (PrefixAffinity{}).Route(tightReq(1), reps); got != 1 {
		t.Fatalf("routed to replica %d, want 1 (cached tie, lighter load)", got)
	}
}

// TestPrefixAffinityPickOrderAllocatesNothing pins the single pass's full
// order — longest cached prefix, then least load, then lowest index, with
// unprobeable replicas skipped — and that a routing decision allocates
// nothing.
func TestPrefixAffinityPickOrderAllocatesNothing(t *testing.T) {
	c := proberCluster(t, []int{128, 512, -1, 512, 512})
	reps := c.Replicas()
	loadReplica(reps[1], 100, 300, 0.05)
	r := tightReq(1)
	var router PrefixAffinity
	if got := router.Route(r, reps); got != 3 {
		t.Fatalf("routed to replica %d, want 3 (cached tie with 4 on load, lower index)", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { router.Route(r, reps) }); allocs != 0 {
		t.Fatalf("Route allocates %.1f times per decision, want 0", allocs)
	}
}

func TestPrefixAffinityColdFleetFallsBackToLeastLoaded(t *testing.T) {
	// Nothing cached anywhere (including a replica that cannot even be
	// probed): the policy must behave exactly like least-loaded.
	c := proberCluster(t, []int{0, 0, -1})
	reps := c.Replicas()
	loadReplica(reps[0], 100, 300, 0.05)
	loadReplica(reps[2], 102, 200, 0.05)
	r := tightReq(1)
	want := (LeastLoaded{}).Route(r, reps)
	if got := (PrefixAffinity{}).Route(r, reps); got != want {
		t.Fatalf("cold-fleet route %d, want least-loaded's %d", got, want)
	}
	if want != 1 {
		t.Fatalf("least-loaded picked %d, scenario wants 1", want)
	}
}

func TestPrefixAffinityDecodeDelegatesToLeastLoaded(t *testing.T) {
	c := proberCluster(t, []int{512, 0, 0})
	reps := c.Replicas()
	loadReplica(reps[0], 100, 300, 0.05)
	r := tightReq(1)
	if got, want := (PrefixAffinity{}).RouteDecode(r, reps), (LeastLoaded{}).RouteDecode(r, reps); got != want {
		t.Fatalf("decode route %d, want least-loaded's %d", got, want)
	}
	if (PrefixAffinity{}).Name() != "prefix-affinity" {
		t.Fatal("wrong router name")
	}
}
