package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
)

func TestFoldTracesAttributesInnermostSimulatorFrame(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"lm":         20,        // inlined leaf frame
		"request":    100. / 15, // mathutil leaf lands on its caller
		"kvcache":    200. / 15,
		"metrics":    100. / 15, // two obs/hist frames skipped
		"runtime_bg": 200. / 15, // GC worker: no simulator frame
		"serve":      100. / 15, // runtime allocation inside the serving loop
		"bench":      100. / 15, // the tracer's own frames
		"other":      100. / 15, // a simulator package with no layer
		"core":       20,        // generic name holding a package path
	}
	sum := 0.0
	for _, l := range layers {
		got := shares[l]
		sum += got
		if math.Abs(got-want[l]) > 1e-9 {
			t.Errorf("%s share = %.4f%%, want %.4f%%", l, got, want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %v%%, want 100%%", sum)
	}
}

func TestFoldTracesRejectsEmptyProfile(t *testing.T) {
	if _, err := foldTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("profile without samples folded without error")
	}
}

// The traced wrapper must forward exactly the optional interfaces of the
// system it wraps: adding SpecTunable to vLLM, or dropping it or the prefix
// probes from AdaServe, would change tuning or routing, not just timing.
func TestTracedSystemForwardsExactlyItsInterfaces(t *testing.T) {
	tr := &tracer{}
	for _, kind := range []experiments.SystemKind{experiments.SysAdaServe, experiments.SysVLLM} {
		raw, err := experiments.Build(kind, model, experiments.BuildOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := tr.system(raw)
		if err != nil {
			t.Fatal(err)
		}
		_, rawTunable := raw.(adaptive.SpecTunable)
		_, wrappedTunable := wrapped.(adaptive.SpecTunable)
		if rawTunable != wrappedTunable {
			t.Errorf("%s: SpecTunable %v, wrapper %v", kind, rawTunable, wrappedTunable)
		}
		if _, ok := wrapped.(cluster.PrefixProber); !ok {
			t.Errorf("%s: wrapper drops PrefixProber", kind)
		}
		if _, ok := wrapped.(prefixSystem); !ok {
			t.Errorf("%s: wrapper drops KVPrefixStats", kind)
		}
	}
	if _, ok := interface{}(&tracedSystem{}).(adaptive.SpecTunable); ok {
		t.Error("tracedSystem claims SpecTunable")
	}
}

func TestReferenceTimesItsKernels(t *testing.T) {
	ref, err := newReference()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.release()
	if d := ref.time(); d <= 0 || d > 10*time.Second {
		t.Errorf("reference took %v", d)
	}
	if d := (*reference)(nil).time(); d != refNominal {
		t.Errorf("nil reference took %v, want %v", d, refNominal)
	}
}

type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench benchmarkFile
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	return bench
}

// Every workload runs untraced and traced at a small scale: a traced
// digest that differed from the untraced one would count as a failed run.
// Every metric BENCHMARK.json names must come out, with its unit, finite.
func TestEveryWorkloadTracedMatchesUntracedAndEmitsEveryMetric(t *testing.T) {
	bench := readBenchmark(t)
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bench.Workloads), len(workloads))
	}
	for i, w := range bench.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the program's %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer()) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program %d+%d",
			len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer()))
	}
	o := options{seed: 3, seconds: 0.1, passes: 1, trace: 1, scale: 0.02, workdir: t.TempDir()}
	for _, bw := range bench.Workloads {
		w, err := findWorkload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := measure(w, o, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rep.Failed > 0 || rep.Attempted < 2*w.inputs || rep.PerLayer["trace.runs"].Value < float64(w.inputs) || rep.Digest == "" {
			t.Errorf("%s: %d of %d runs failed, %v traced, digest %q: %v", w.name, rep.Failed, rep.Attempted,
				rep.PerLayer["trace.runs"].Value, rep.Digest, rep.Errors)
		}
		for _, m := range bench.EndToEnd {
			st, ok := rep.EndToEnd[m.Name]
			if !ok || st.Unit != m.Unit || st.N < 1 || !(st.Median > 0) || math.IsInf(st.Median, 0) {
				t.Errorf("%s: end-to-end %s = %+v, want a positive finite value in %s", w.name, m.Name, st, m.Unit)
			}
		}
		for _, m := range bench.PerLayer {
			v, ok := rep.PerLayer[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s = %+v (present %v), want a finite value in %s", w.name, m.Name, v, ok, m.Unit)
			}
		}
	}
}

// The last line of the output is the result: exactly correct, attempted,
// failed and metrics, where metrics holds every end-to-end metric with
// -trace 0 and every per-layer metric with -trace 1, each with its unit.
func TestRunEndsWithTheResultLine(t *testing.T) {
	bench := readBenchmark(t)
	for trace, want := range [][]struct{ Name, Unit string }{bench.EndToEnd, bench.PerLayer} {
		var out bytes.Buffer
		snapPath := filepath.Join(t.TempDir(), "snap.json")
		o := options{workload: "prefix-sessions", seed: 2, seconds: 0.01, passes: 1, trace: trace, scale: 0.02,
			workdir: t.TempDir(), json: snapPath}
		if err := run(o, &out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("-trace %d: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(want) {
			t.Errorf("-trace %d: correct %v, %d attempted, %d failed, %d metrics, want %d",
				trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(want))
		}
		for _, m := range want {
			if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("-trace %d: metric %s = %+v (present %v), want unit %s", trace, m.Name, got, ok, m.Unit)
			}
		}
		var snap snapshot
		if data, err := os.ReadFile(snapPath); err != nil {
			t.Error(err)
		} else if err := json.Unmarshal(data, &snap); err != nil || len(snap.Workloads) != 1 || snap.Workloads[0].Digest == "" || snap.Env["go_version"] == "" {
			t.Errorf("-trace %d: snapshot %s: %v, %+v", trace, snapPath, err, snap.Env)
		}
	}
	for _, o := range []options{
		{workload: "spec-decode", seconds: 1, passes: 1, trace: 2, scale: 1},
		{workload: "spec-decode", seconds: 1, passes: 0, trace: 0, scale: 1},
		{workload: "no-such-workload", seconds: 1, passes: 1, trace: 0, scale: 1},
	} {
		if err := run(o, io.Discard); err == nil {
			t.Errorf("run(%+v) succeeded, want an error", o)
		}
	}
}
