package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaserve/internal/metrics"
	"adaserve/internal/obs/hist"
)

// tableSum builds a hand-made cluster summary whose every rendered field is
// a distinct non-zero function of i, so a column that reads the wrong field,
// swaps an axis or rounds differently changes the rendered bytes.
func tableSum(i int) *metrics.ClusterSummary {
	f := float64(i)
	reqs := 40 + 7*i
	return &metrics.ClusterSummary{
		Aggregate: &metrics.Summary{
			Requests: reqs, Finished: reqs - 1,
			Attained: reqs - 2 - i%5, TTFTAttained: reqs - 1 - i%3,
			Goodput: 120.125 + 13.37*f, MeanAcceptedPerStep: 2.5 + 0.11*f,
			MaxTTFT:  1.5 + 0.25*f,
			TPOTTail: hist.Digest{P50: 0.021 + 0.001*f, P99: 0.05 + 0.002*f, P999: 0.07 + 0.003*f, Max: 0.09 + 0.004*f},
		},
		Replicas: []*metrics.Summary{{Requests: reqs - reqs/3 - i%2}, {Requests: reqs / 3}},
		Transfer: metrics.TransferStats{Count: 3 + i, Bytes: 1e9 * f, Time: 0.01 * f},
		Autoscale: &metrics.AutoscaleSummary{
			ScaleUps: i % 4, ScaleDowns: i % 3, ReplicaSeconds: 10 + 2.5*f,
			Attained: reqs - 2, GoodTokens: 1000 + 17*i,
		},
	}
}

// withAdmission attaches a gate rollup (the static rows carry none).
func withAdmission(s *metrics.ClusterSummary, i int) *metrics.ClusterSummary {
	s.Admission = &metrics.AdmissionSummary{Offered: 50 + i, Admitted: 44, Degraded: i % 4, Rejected: 1 + i%3}
	return s
}

// renderGoldenTables renders every sweep table from fixed summaries, one
// delimited block per table. Cell orders are deliberately unsorted and one
// grid cell is missing, so axis discovery, numeric row sorting and empty
// cells are all pinned.
func renderGoldenTables() string {
	var b strings.Builder
	block := func(name, out string) {
		fmt.Fprintf(&b, "=== %s ===\n%s\n", name, out)
	}

	var series []Cell
	for i, x := range []float64{3.4, 2.6, 4.2} {
		for j, kind := range []SystemKind{SysAdaServe, SysVLLMSpec6, SysVLLM} {
			if i == 2 && j == 2 {
				continue // missing cell
			}
			n := 3*i + j
			series = append(series, Cell{System: kind, x: x, Sum: &metrics.ClusterSummary{Aggregate: &metrics.Summary{
				Requests: 30 + n, Attained: 25 + n%4, Goodput: 100.5 + 9.25*float64(n),
				MeanAcceptedPerStep: 2 + 0.07*float64(n),
			}}})
		}
	}
	block("series attainment", SeriesTable("rps", "attainment %",
		func(s *metrics.Summary) float64 { return 100 * s.Attainment() }).Render(series))
	block("series goodput", SeriesTable("urgent", "goodput tok/s",
		func(s *metrics.Summary) float64 { return s.Goodput }).Render(series))
	block("series mean acc", SeriesTable("slo-scale", "mean acc",
		func(s *metrics.Summary) float64 { return s.MeanAcceptedPerStep }).Render(series))

	var cluster []Cell
	for i, n := range []int{4, 1, 8, 2} {
		for j, r := range []string{"round-robin", "least-loaded", "slo-aware"} {
			if i == 1 && j == 1 {
				continue
			}
			cluster = append(cluster, Cell{replicas: n, router: r, Sum: tableSum(3*i + j)})
		}
	}
	block("cluster", ClusterTable.Render(cluster))

	var disagg []Cell
	for i, mix := range []string{"default", "summ-heavy"} {
		for j, split := range []string{"colocated", "1P3D", "2P2D"} {
			for k, r := range []string{"round-robin", "slo-aware"} {
				disagg = append(disagg, Cell{split: split, router: r, mix: mix, Sum: tableSum(6*i + 2*j + k)})
			}
		}
	}
	block("disagg", DisaggTable.Render(disagg))

	var auto []Cell
	for i, profile := range []string{"spike", "diurnal"} {
		for j, cfg := range []string{"static", "target-queue", "rate-prop"} {
			for k, r := range []string{"least-loaded", "slo-aware"} {
				auto = append(auto, Cell{config: cfg, profile: profile, router: r, Sum: tableSum(6*i + 2*j + k)})
			}
		}
	}
	block("autoscale", AutoscaleTable.Render(auto))

	var adapt []Cell
	for i, profile := range []string{"spike", "ramp"} {
		for j, cfg := range adaptiveConfigs() {
			s := tableSum(3*i + j)
			if cfg != "static" {
				s = withAdmission(s, 3*i+j)
			}
			adapt = append(adapt, Cell{config: cfg, profile: profile, Sum: s})
		}
	}
	block("adaptive", AdaptiveTable.Render(adapt))

	var fault []Cell
	for i, scenario := range []string{"crash", "straggler", "custom"} {
		for j, rec := range faultRecoveries() {
			n := 3*i + j
			s := tableSum(n)
			s.Faults = &metrics.FaultSummary{
				Spec: "crash@" + scenario, Recovery: rec,
				LostRequests: n % 5, Retried: n % 4, Dropped: n % 2, Hedged: n % 3,
				TransferFallbacks: n % 6, MTTR: 0.5 * float64(n),
			}
			fault = append(fault, Cell{scenario: scenario, recovery: rec, Sum: s})
		}
	}
	block("faults", FaultsTable.Render(fault))

	var tr []Cell
	for i, scenario := range traceScenarios() {
		for j, cfg := range traceConfigs() {
			s := tableSum(3*i + j)
			if cfg == "admission" {
				s = withAdmission(s, 3*i+j)
			}
			tr = append(tr, Cell{scenario: scenario, config: cfg, Sum: s})
		}
	}
	block("trace", TraceTable.Render(tr))

	var pfx []Cell
	for i, cached := range []bool{false, true} {
		for j, r := range prefixRouters() {
			n := 3*i + j
			s := tableSum(n)
			if cached {
				s.Prefix = &metrics.PrefixSummary{
					Lookups: 72, Hits: 40 + n, HitTokens: 50000 + 1234*n,
					Evictions: n, Reloads: n % 3,
				}
			}
			pfx = append(pfx, Cell{router: r, cached: cached, Sum: s})
		}
	}
	block("prefix", PrefixTable.Render(pfx))

	block("ablations", AblationsTable.Render([]Cell{
		{config: "AdaServe (full)", Sum: tableSum(1)},
		{config: "no CUDA graphs", Sum: tableSum(2)},
	})+"\n")
	block("hardware", RenderHardware(Llama70B(), []HardwareRow{
		{hardware: "A100", baseline: 0.0319, knee: 160, budget: 212, draftStep: 0.0041},
		{hardware: "H100", baseline: 0.0187, knee: 295, budget: 390, draftStep: 0.0023},
	}))
	return b.String()
}

// TestGoldenRenderedTables pins the printed layout of every sweep table —
// headers, widths, formats, axis order, section breaks and trailing
// newlines — byte for byte. The numeric goldens pin what the simulator
// computes; this one pins how adaserve-bench prints it.
func TestGoldenRenderedTables(t *testing.T) {
	got := []byte(renderGoldenTables())
	path := filepath.Join("testdata", "golden", "render.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl := strings.Split(string(got), "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("render.txt mismatch at line %d:\n got: %q\nwant: %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("render.txt mismatch: output has %d lines, fixture %d", len(gl), len(wl))
	}
}
