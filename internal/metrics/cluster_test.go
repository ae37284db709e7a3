package metrics

import (
	"math"
	"strings"
	"testing"
)

// sum builds a minimal per-replica summary with the given request count.
func sum(system string, requests int) *Summary {
	return &Summary{System: system, Requests: requests}
}

func TestRequestImbalance(t *testing.T) {
	cases := []struct {
		name     string
		requests []int
		want     float64
	}{
		{name: "balanced", requests: []int{10, 10, 10, 10}, want: 1},
		{name: "one hot", requests: []int{40, 0, 0, 0}, want: 4},
		{name: "skewed", requests: []int{30, 10}, want: 1.5},
		{name: "single replica", requests: []int{7}, want: 1},
		{name: "no traffic", requests: []int{0, 0}, want: 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cs := &ClusterSummary{}
			for i, n := range c.requests {
				cs.Replicas = append(cs.Replicas, sum("r", n))
				_ = i
			}
			if got := cs.RequestImbalance(); math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("imbalance = %g, want %g", got, c.want)
			}
		})
	}
	empty := &ClusterSummary{}
	if got := empty.RequestImbalance(); got != 0 {
		t.Fatalf("imbalance of replica-less summary = %g, want 0", got)
	}
}

func TestClusterSummaryDelegates(t *testing.T) {
	cs := &ClusterSummary{Aggregate: &Summary{
		Requests: 10, Attained: 8, TTFTAttained: 9, Goodput: 123.5,
	}}
	if got := cs.Attainment(); got != 0.8 {
		t.Fatalf("attainment %g, want 0.8", got)
	}
	if got := cs.TTFTAttainment(); got != 0.9 {
		t.Fatalf("TTFT attainment %g, want 0.9", got)
	}
	if got := cs.Goodput(); got != 123.5 {
		t.Fatalf("goodput %g, want 123.5", got)
	}
}

func TestRoleStatsAttainment(t *testing.T) {
	rs := RoleStats{
		Role: "prefill", Replicas: 2,
		PrefillRequests: 40, TTFTAttained: 30,
		DecodeRequests: 0, TPOTAttained: 0,
	}
	if got := rs.TTFTAttainment(); got != 0.75 {
		t.Fatalf("TTFT attainment %g, want 0.75", got)
	}
	// A role that never served a stage reports 0, not NaN.
	if got := rs.TPOTAttainment(); got != 0 {
		t.Fatalf("decode-less TPOT attainment %g, want 0", got)
	}
	dec := RoleStats{Role: "decode", Replicas: 1, DecodeRequests: 8, TPOTAttained: 6}
	if got := dec.TPOTAttainment(); got != 0.75 {
		t.Fatalf("TPOT attainment %g, want 0.75", got)
	}
	if got := dec.TTFTAttainment(); got != 0 {
		t.Fatalf("prefill-less TTFT attainment %g, want 0", got)
	}
}

func TestTransferStatsMeanLatency(t *testing.T) {
	ts := TransferStats{Count: 4, Bytes: 4e9, Time: 0.2}
	if got := ts.MeanLatency(); got != 0.05 {
		t.Fatalf("mean latency %g, want 0.05", got)
	}
	if got := (TransferStats{}).MeanLatency(); got != 0 {
		t.Fatalf("mean latency of no transfers %g, want 0", got)
	}
}

func TestAutoscaleSummary(t *testing.T) {
	a := AutoscaleSummary{
		Policy: "rate-prop", ScaleUps: 3, ScaleDowns: 2, DrainMigrations: 5,
		ReplicaSeconds: 200, PeakReplicas: 4, MinReplicas: 1,
		Finished: 100, Attained: 90, GoodTokens: 50000,
	}
	if got := a.GoodputPerReplicaSecond(); got != 250 {
		t.Fatalf("goodput per replica-second %g, want 250", got)
	}
	zero := AutoscaleSummary{GoodTokens: 10, Attained: 10}
	if zero.GoodputPerReplicaSecond() != 0 {
		t.Fatal("zero replica-seconds must not divide")
	}
	s := a.String()
	for _, want := range []string{"rate-prop", "3 up", "2 down", "5 drain", "1-4", "250.00 good tok/replica-s"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q, missing %q", s, want)
		}
	}
	// The zero policy renders as static.
	if !strings.HasPrefix((AutoscaleSummary{}).String(), "static:") {
		t.Fatalf("unnamed policy renders as %q, want static prefix", (AutoscaleSummary{}).String())
	}
}

func TestClusterSummaryStringIdleReplica(t *testing.T) {
	cs := &ClusterSummary{
		Aggregate: &Summary{System: "agg", Requests: 4, Attained: 4},
		Replicas: []*Summary{
			{System: "replica 0", Requests: 4, Attained: 4},
			{System: "replica 1", Requests: 0},
		},
	}
	s := cs.String()
	if !strings.Contains(s, "replica 1") || !strings.Contains(s, "idle (no requests routed)") {
		t.Fatalf("String() = %q, want the idle replica rendered as idle", s)
	}
	if strings.Contains(strings.Split(s, "replica 1")[1], "attain 0.0%") {
		t.Fatalf("idle replica rendered as a 0%% attainment failure: %q", s)
	}
}
