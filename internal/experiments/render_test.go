package experiments

import (
	"strings"
	"testing"

	"adaserve/internal/metrics"
)

// renderSum builds a small but non-degenerate cluster summary for the
// render tests: enough populated fields that every column formats a real
// number instead of a guard-path zero.
func renderSum(requests, attained int, goodput float64) *metrics.ClusterSummary {
	return &metrics.ClusterSummary{
		Aggregate: &metrics.Summary{
			Requests: requests, Attained: attained, TTFTAttained: attained,
			Goodput: goodput,
		},
		Replicas: []*metrics.Summary{
			{Requests: requests - requests/3},
			{Requests: requests / 3},
		},
		Transfer: metrics.TransferStats{Count: 5, Bytes: 1e9, Time: 0.1},
		Autoscale: &metrics.AutoscaleSummary{
			GoodTokens: int(goodput * 10), ReplicaSeconds: 20,
			ScaleUps: 2, ScaleDowns: 1,
		},
	}
}

func TestRenderAutoscale(t *testing.T) {
	pts := []Cell{
		{config: "static", profile: "spike", router: "round-robin", Sum: renderSum(90, 60, 500)},
		{config: "target-queue", profile: "spike", router: "round-robin", Sum: renderSum(90, 80, 620)},
		{config: "static", profile: "diurnal", router: "least-loaded", Sum: renderSum(120, 100, 550)},
	}
	out := AutoscaleTable.Render(pts)
	for _, want := range []string{
		"== profile spike ==", "== profile diurnal ==",
		"round-robin", "least-loaded", "static", "target-queue",
		"goodput / replica-second", "attainment %", "replica-seconds", "scale events",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// 620 good tokens/s over 20 replica-seconds of a 10s-normalized run.
	if !strings.Contains(out, "310.00") {
		t.Fatalf("goodput-per-replica-second cell missing:\n%s", out)
	}
}

func TestRenderClusterScaling(t *testing.T) {
	pts := []Cell{
		{replicas: 4, router: "slo-aware", Sum: renderSum(100, 75, 400)},
		{replicas: 1, router: "slo-aware", Sum: renderSum(25, 20, 110)},
		{replicas: 1, router: "round-robin", Sum: renderSum(25, 15, 90)},
	}
	out := ClusterTable.Render(pts)
	for _, want := range []string{"replicas", "slo-aware", "round-robin", "attainment %", "goodput tok/s", "request imbalance", "75.00"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	// Replica counts must render sorted regardless of point order.
	if strings.Index(out, "\n1 ") > strings.Index(out, "\n4 ") {
		t.Fatalf("replica rows not sorted:\n%s", out)
	}
}

func TestRenderDisagg(t *testing.T) {
	pts := []Cell{
		{split: "3p1d", router: "slo-aware", mix: "default", Sum: renderSum(80, 70, 480)},
		{split: "2p2d", router: "slo-aware", mix: "default", Sum: renderSum(80, 64, 510)},
		{split: "3p1d", router: "least-loaded", mix: "prefill-heavy", Sum: renderSum(60, 40, 300)},
	}
	out := DisaggTable.Render(pts)
	for _, want := range []string{
		"== mix default ==", "== mix prefill-heavy ==",
		"3p1d", "2p2d", "TTFT attainment %", "TPOT attainment %",
		"goodput tok/s", "KV transfer mean ms", "20.00",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestParseSystem(t *testing.T) {
	for _, k := range knownSystems() {
		got, err := ParseSystem(string(k))
		if err != nil || got != k {
			t.Fatalf("ParseSystem(%q) = %v, %v", k, got, err)
		}
	}
	if _, err := ParseSystem("no-such-system"); err == nil || !strings.Contains(err.Error(), "unknown system") {
		t.Fatalf("typo accepted: %v", err)
	}
}

func TestRenderPrefix(t *testing.T) {
	on := renderSum(72, 72, 360)
	on.Prefix = &metrics.PrefixSummary{
		Lookups: 72, Hits: 60, HitTokens: 87008,
		Evictions: 4, Reloads: 2, ReloadedTokens: 32,
	}
	pts := []Cell{
		{router: "least-loaded", cached: false, Sum: renderSum(72, 44, 310)},
		{router: "prefix-affinity", cached: true, Sum: on},
	}
	out := PrefixTable.Render(pts)
	for _, want := range []string{
		"router", "prefix", "hit%", "savedTok",
		"least-loaded", "off", "prefix-affinity", "on",
		"87008", // tokens saved on the cached row
		"83.3",  // 60/72 hit rate
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}
