package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/obs"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// spanCell runs the fixed span-golden cell — a 1P1D disaggregated AdaServe
// pair behind the slo-aware router, flash-crowd spike arrivals, the
// closed-loop controller with its admission gate on — and returns the
// recorder's Perfetto export. The cell crosses every span kind at once:
// queued/prefill/kv-transfer/decode phases from the role split, plus
// degrade and reject annotations from the gate under the burst.
func spanCell(setup ModelSetup) ([]byte, error) {
	const duration = 4
	roles, err := cluster.ParseSplit("1P1D")
	if err != nil {
		return nil, err
	}
	cl, err := buildCluster(SysAdaServe, setup, roles, "slo-aware", nil, BuildOptions{Seed: 1})
	if err != nil {
		return nil, err
	}
	cfg, err := AdaptiveConfig("adaptive+admission", duration)
	if err != nil {
		return nil, err
	}
	ctrl, err := adaptive.New(cl, *cfg)
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(cl, serve.Options{Adaptive: ctrl})
	if err != nil {
		return nil, err
	}
	sr := obs.NewSpanRecorder()
	srv.Subscribe(sr)
	rate, maxRate, err := workload.RateProfile("spike", AdaptiveMeanRPS(setup), duration)
	if err != nil {
		return nil, err
	}
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(1, 0xada))
	if err != nil {
		return nil, err
	}
	src, err := serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(1, 0x7a)), rate, maxRate, duration)
	if err != nil {
		return nil, err
	}
	if _, err := srv.Run(src); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := sr.WriteTrace(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// spanGrid runs four copies of the span cell through the experiment runner
// at the given parallelism and requires them byte-identical: worker
// interleaving must not leak into any recorder's export.
func spanGrid(t *testing.T, parallel int) []byte {
	t.Helper()
	setup := Llama70B()
	outs, err := runJobs(parallel, 4, func(int) ([]byte, error) {
		return spanCell(setup)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outs); i++ {
		if !bytes.Equal(outs[0], outs[i]) {
			t.Fatalf("span export differs between grid cells 0 and %d at parallel %d", i, parallel)
		}
	}
	return outs[0]
}

// TestGoldenSpanTimelines pins the span-timeline export byte-for-byte: the
// fixture certifies phase boundaries (including the disaggregated
// KV-transfer windows), mark placement and gate annotations all stay
// deterministic. Any intentional change to span assembly must regenerate
// with -update and justify the diff in review.
func TestGoldenSpanTimelines(t *testing.T) {
	got := spanGrid(t, 1)
	path := filepath.Join("testdata", "golden", "spans.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		gl := bytes.Split(got, []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("span golden mismatch at line %d:\n got: %s\nwant: %s\n(regenerate with -update if intentional)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("span golden mismatch: output has %d lines, fixture %d", len(gl), len(wl))
	}
	sanitySpanExport(t, got)
}

// sanitySpanExport spot-checks the pinned export actually exercises the
// span taxonomy the cell was built to cross.
func sanitySpanExport(t *testing.T, got []byte) {
	t.Helper()
	for _, want := range []string{
		`"name":"queued"`, `"name":"prefill"`, `"name":"kv-transfer"`,
		`"name":"decode"`, `"name":"commit"`, `"name":"first-token"`,
	} {
		if !bytes.Contains(got, []byte(want)) {
			t.Errorf("span golden never exercises %s", want)
		}
	}
}

// TestSpanTimelineParallelDeterminism reruns the span grid at -parallel 8
// and requires the export identical to the sequential one.
func TestSpanTimelineParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	a := spanGrid(t, 1)
	b := spanGrid(t, 8)
	if !bytes.Equal(a, b) {
		t.Fatal("span export differs between -parallel 1 and 8")
	}
}

// TestSpanReplayIdentity closes the observability loop over trace replay:
// a fixed-seed open-loop run exports its arrival trace, and every replay of
// that trace — including one round-tripped through the file format — must
// reassemble byte-identical span timelines: same phases, same marks, same
// outcomes. (A replay is fully determined by the trace file, which
// re-derives request content seeds from the file header; the generating
// run's own seeds differ by design, so the identity pinned here is
// replay ≡ replay, the property trace-driven debugging relies on.)
func TestSpanReplayIdentity(t *testing.T) {
	setup := Llama70B()
	const duration = 8
	runOnce := func(src serve.Source) (*trace.Trace, []byte) {
		t.Helper()
		cl, err := buildCluster(SysAdaServe, setup, make([]cluster.Role, 2), "slo-aware", nil, BuildOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := serve.NewServer(cl, serve.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exp := trace.NewExporter(trace.ExportOptions{Seed: 1, Source: "export:spans"})
		sr := obs.NewSpanRecorder()
		srv.Subscribe(exp)
		srv.Subscribe(sr)
		if _, err := srv.Run(src); err != nil {
			t.Fatal(err)
		}
		tr, err := exp.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sr.WriteTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return tr, buf.Bytes()
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
	exported, origSpans := runOnce(open)
	if len(origSpans) == 0 {
		t.Fatal("open-loop run recorded no spans")
	}

	replayFrom := func(tr *trace.Trace) (*trace.Trace, []byte) {
		t.Helper()
		src, err := trace.NewSource(tr)
		if err != nil {
			t.Fatal(err)
		}
		return runOnce(src)
	}
	replayTrace, firstSpans := replayFrom(exported)

	// Round-trip the export through its file form, as a CLI user would.
	parsed, err := trace.Parse(exported.Format())
	if err != nil {
		t.Fatalf("exported trace does not parse: %v", err)
	}
	_, secondSpans := replayFrom(parsed)
	if !bytes.Equal(firstSpans, secondSpans) {
		t.Fatal("span timelines differ between two replays of the same trace")
	}
	if replayTrace.Format() != exported.Format() {
		t.Fatal("replay re-export differs from the original trace")
	}
}

// TestGoldenMetricsExport pins the metrics exporter's JSON and Prometheus
// output byte-for-byte over a short seeded fleet run: a snapshot every
// simulated second over a 3-second trailing window (so finishes age out of
// the window), then the terminal summary. The snapshot payload and the
// exporter's rendering of it can change only with a regenerated fixture.
func TestGoldenMetricsExport(t *testing.T) {
	setup := Llama70B()
	mexp := obs.NewMetricsExporter()
	out, err := RunSpec{
		Kind: SysAdaServe, Setup: setup, Seed: 1, Duration: 8,
		Roles: make([]cluster.Role, 2), Router: "slo-aware",
		Open:          &OpenLoad{Profile: "spike", RPS: AdaptiveMeanRPS(setup), SLOScale: 0.7, Salt: 0xada},
		Observers:     []serve.Observer{mexp},
		SnapshotEvery: 1, Window: 3,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(mexp.Snapshots()) < 8 {
		t.Fatalf("%d snapshots, want one per simulated second", len(mexp.Snapshots()))
	}
	var js, prom bytes.Buffer
	if err := mexp.WriteJSON(&js, out.Summary.Aggregate); err != nil {
		t.Fatal(err)
	}
	if err := mexp.WritePrometheus(&prom, out.Summary.Aggregate); err != nil {
		t.Fatal(err)
	}
	compareFixture(t, "export.json", js.Bytes())
	compareFixture(t, "export.prom", prom.Bytes())
}
