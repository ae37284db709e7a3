package experiments

import (
	"io/fs"
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// TestTraceSpecsCanonical validates every committed scenario spec: each
// must parse, and every scenario must have one. trace's
// TestCommittedSpecsCanonical checks the files are in canonical form.
func TestTraceSpecsCanonical(t *testing.T) {
	names := map[string]bool{}
	err := fs.WalkDir(traceSpecs, "testdata/specs", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(traceSpecs, path)
		if err != nil {
			return err
		}
		s, err := trace.ParseSpec(string(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		names[s.Name] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, scenario := range traceScenarios() {
		if !names[scenario] {
			t.Errorf("scenario %s has no committed spec (or its #meta name differs)", scenario)
		}
		if _, err := traceSpec(scenario); err != nil {
			t.Errorf("TraceSpec(%s): %v", scenario, err)
		}
	}
	if _, err := traceSpec("nope"); err == nil {
		t.Error("TraceSpec should reject unknown scenarios")
	}
}

// TestTraceCellUnknownConfig pins the sweep's config validation.
func TestTraceCellUnknownConfig(t *testing.T) {
	_, err := traceCell(Llama70B(), "bursty", "chaos", RunOptions{Seed: 1, Duration: 6})
	if err == nil || !strings.Contains(err.Error(), "unknown trace config") {
		t.Fatalf("TraceCell = %v, want unknown-config error", err)
	}
}

// TestGoldenTraceGrid pins the trace-replay sweep byte-for-byte: the
// static rows certify spec compilation and replay stay deterministic, the
// admission rows pin every gate decision against the committed adversarial
// scenarios, and the autoscale rows pin the scaling trajectory.
func TestGoldenTraceGrid(t *testing.T) {
	pts, err := TraceReplay(Llama70B(), RunOptions{Seed: 1, Duration: 24, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "trace.json", traceRows(pts))

	// The rendered table covers every (scenario, config) cell of the same
	// sweep: one section per scenario, one row per config, every headline
	// column present.
	table := TraceTable.Render(pts)
	for _, scenario := range traceScenarios() {
		if !strings.Contains(table, "== scenario "+scenario+" ==") {
			t.Errorf("rendered table missing scenario %s:\n%s", scenario, table)
		}
	}
	for _, config := range traceConfigs() {
		if strings.Count(table, config) < len(traceScenarios()) {
			t.Errorf("rendered table missing a %s row:\n%s", config, table)
		}
	}
	for _, col := range []string{"goodput", "attain%", "ttftAtt%", "maxTTFT", "p99TPOT", "degraded", "rejected"} {
		if !strings.Contains(table, col) {
			t.Errorf("rendered table missing column %s:\n%s", col, table)
		}
	}
}

func traceRows(pts []Cell) []goldenRow {
	var rows []goldenRow
	for _, p := range pts {
		s := p.Sum
		row := goldenRow{
			Experiment: "trace", Scenario: p.scenario, Config: p.config,
			Requests: s.Aggregate.Requests, Finished: s.Aggregate.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput(), Throughput: s.Aggregate.Throughput,
			MeanAccepted: s.Aggregate.MeanAcceptedPerStep,
			P50TPOT:      s.Aggregate.P50TPOT(), P99TPOT: s.Aggregate.P99TPOT(), P999TPOT: s.Aggregate.P999TPOT(),
			MaxTTFT: s.Aggregate.MaxTTFT,
		}
		if s.Admission != nil {
			row.Degraded = s.Admission.Degraded
			row.Rejected = s.Admission.Rejected
		}
		rows = append(rows, row)
	}
	return rows
}

// TestTraceReplayParallelDeterminism reruns the sweep at -parallel 1 and 8
// and requires identical results: worker scheduling must not leak into any
// cell.
func TestTraceReplayParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := RunOptions{Seed: 1, Duration: 24}
	opts.Parallel = 1
	a, err := TraceReplay(Llama70B(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	b, err := TraceReplay(Llama70B(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(traceRows(a), traceRows(b)) {
		t.Fatal("trace sweep differs between -parallel 1 and 8")
	}
}

// TestExportReplayLoop closes the loop the subsystem exists for: a
// fixed-seed open-loop cluster run is exported to a trace, the trace
// replays through an identically built fresh cluster, and the replayed
// run's admitted arrival stream — timestamps, classes, lengths, SLOs —
// must reproduce the original exactly (pinned by comparing the two
// exports byte-for-byte).
func TestExportReplayLoop(t *testing.T) {
	setup := Llama70B()
	const duration = 8
	runOnce := func(src serve.Source) *trace.Trace {
		t.Helper()
		cl, err := buildCluster(SysAdaServe, setup, make([]cluster.Role, 2), "slo-aware", nil, BuildOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(cl, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exp := trace.NewExporter(trace.ExportOptions{Seed: 1, Source: "export:test"})
		srv.Subscribe(exp)
		if _, err := srv.Run(src); err != nil {
			t.Fatal(err)
		}
		tr, err := exp.Trace()
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}

	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(1, 0xada))
	if err != nil {
		t.Fatal(err)
	}
	rate, maxRate, err := workload.RateProfile("spike", AdaptiveMeanRPS(setup), duration)
	if err != nil {
		t.Fatal(err)
	}
	open, err := serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(1, 0x7a)), rate, maxRate, duration)
	if err != nil {
		t.Fatal(err)
	}
	exported := runOnce(open)
	if len(exported.Arrivals) == 0 {
		t.Fatal("open-loop run exported no arrivals")
	}

	// Round-trip the export through its file form, as a CLI user would.
	parsed, err := trace.Parse(exported.Format())
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	replaySrc, err := trace.NewSource(parsed)
	if err != nil {
		t.Fatal(err)
	}
	replayed := runOnce(replaySrc)
	if replayed.Format() != exported.Format() {
		t.Fatal("replayed admission stream differs from the original export")
	}
}

// TestCompileTraceSpecSeedScoping pins that compilation depends on the run
// seed (cells with different -seed get different traffic) but not on the
// control configuration (every config of one scenario sees identical
// traffic).
func TestCompileTraceSpecSeedScoping(t *testing.T) {
	setup := Llama70B()
	spec, err := traceSpec("bursty")
	if err != nil {
		t.Fatal(err)
	}
	a, err := compileTraceSpec(spec, setup, RunOptions{Seed: 1, Duration: 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := compileTraceSpec(spec, setup, RunOptions{Seed: 1, Duration: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() != b.Format() {
		t.Fatal("same seed compiled different traces")
	}
	c, err := compileTraceSpec(spec, setup, RunOptions{Seed: 2, Duration: 12})
	if err != nil {
		t.Fatal(err)
	}
	if a.Format() == c.Format() {
		t.Fatal("different seeds compiled identical traces")
	}
}
