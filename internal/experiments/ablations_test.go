package experiments

import (
	"strings"
	"testing"
)

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation suite is slow")
	}
	rows, err := Ablations(Llama70B(), RunOptions{Seed: 1, Duration: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("%d ablation rows", len(rows))
	}
	byName := map[string]*Cell{}
	for i := range rows {
		byName[rows[i].config] = &rows[i]
	}
	full := byName["AdaServe (full)"]
	if full == nil || full.Sum.Aggregate.Requests == 0 {
		t.Fatal("full configuration missing")
	}

	// Challenge 2: the interleaved Algorithm 1 system must be drastically
	// worse (its iterations cost (B−n) serial draft steps).
	inter := byName["interleaved Algorithm 1"]
	if inter.Sum.Attainment() >= full.Sum.Attainment() {
		t.Fatalf("interleaved attainment %.2f not below full %.2f",
			inter.Sum.Attainment(), full.Sum.Attainment())
	}

	// Over-speculation: static d=8 w=4 must not beat the adaptive
	// controller (at real load it collapses; short test traces may leave
	// both unloaded, so the assertion is non-strict).
	deep := byName["static d=8 w=4 (max trees)"]
	if deep.Sum.Attainment() > full.Sum.Attainment()+1e-9 {
		t.Fatalf("static deep attainment %.2f above adaptive %.2f",
			deep.Sum.Attainment(), full.Sum.Attainment())
	}

	out := AblationsTable.Render(rows)
	if !strings.Contains(out, "configuration") || !strings.Contains(out, "AdaServe (full)") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestInterleavedSystemBuildable(t *testing.T) {
	sys, err := Build(sysAdaServeInterleaved, Llama70B(), BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Name() != string(sysAdaServeInterleaved) {
		t.Fatalf("name %q", sys.Name())
	}
}

// TestGoldenAblationsGrid pins every ablation row on a 20 s fixed-seed
// trace (long enough to load every configuration, still well under a
// second), so the interleaved Algorithm 1 system and the static-(d, w), no-n_max,
// no-CUDA-graphs and greedy-verification configurations are each held to
// exact bytes like the figure grid in bench.json.
func TestGoldenAblationsGrid(t *testing.T) {
	cells, err := Ablations(Llama70B(), RunOptions{Seed: 1, Duration: 20, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, c := range cells {
		s := c.Sum.Aggregate
		rows = append(rows, goldenRow{
			Experiment: "ablation", System: string(c.System), Config: c.config,
			Requests: s.Requests, Finished: s.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput, Throughput: s.Throughput,
			MeanAccepted: s.MeanAcceptedPerStep,
			P50TPOT:      s.P50TPOT(), P99TPOT: s.P99TPOT(), P999TPOT: s.P999TPOT(),
			MaxTTFT: s.MaxTTFT,
		})
	}
	compareGolden(t, "ablations.json", rows)
}
