package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"adaserve/perfledger/stats"
)

// verdicts runs diff on testdata/a.json against testdata/<b> and returns
// the exit status and each metric's verdict.
func verdicts(t *testing.T, b string) (int, map[string]string, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"diff", "-bench", "testdata/BENCHMARK.json", "testdata/a.json", "testdata/" + b},
		nil, &out, &errOut)
	if errOut.Len() > 0 {
		t.Fatalf("diff %s: %s", b, errOut.String())
	}
	got := map[string]string{}
	row := regexp.MustCompile(`^spec-decode\s+(\S+)\s+\S+\s+\S+\s+\S+\s+(\w+)`)
	for _, line := range strings.Split(out.String(), "\n") {
		if m := row.FindStringSubmatch(line); m != nil {
			got[m[1]] = m[2]
		}
	}
	return code, got, out.String()
}

func TestDiffClassifiesAgainstBounds(t *testing.T) {
	for _, tc := range []struct {
		b    string
		code int
		want map[string]string
	}{
		{"b_same.json", 0, map[string]string{"wall_s": "unchanged", "sim_req_per_wall_s": "unchanged", "allocs_per_req": "unchanged"}},
		// At the same seed allocation counts repeat, so a 2.2 % rise is
		// beyond the count band; at another seed it is inside the bound.
		{"b_worse.json", 1, map[string]string{"wall_s": "worse", "sim_req_per_wall_s": "worse", "allocs_per_req": "worse"}},
		{"b_worse_seed2.json", 1, map[string]string{"wall_s": "worse", "sim_req_per_wall_s": "worse", "allocs_per_req": "unchanged"}},
		{"b_better.json", 0, map[string]string{"wall_s": "better", "sim_req_per_wall_s": "better", "allocs_per_req": "better"}},
		{"b_unresolved.json", 0, map[string]string{"wall_s": "unresolved", "sim_req_per_wall_s": "unresolved", "allocs_per_req": "unchanged"}},
	} {
		code, got, out := verdicts(t, tc.b)
		if code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.b, code, tc.code, out)
		}
		for metric, want := range tc.want {
			if got[metric] != want {
				t.Errorf("%s: %s is %q, want %q\n%s", tc.b, metric, got[metric], want, out)
			}
		}
	}
}

func TestDiffFlagsBehaviourChangeAndFailures(t *testing.T) {
	for _, tc := range []struct{ b, flag string }{
		{"b_digest.json", "digest changed"},
		{"b_failed.json", "1 of 6 runs failed"},
	} {
		code, got, out := verdicts(t, tc.b)
		if code != 1 || !strings.Contains(out, tc.flag) {
			t.Errorf("%s: exit %d, want 1 with %q\n%s", tc.b, code, tc.flag, out)
		}
		if got["wall_s"] != "unchanged" {
			t.Errorf("%s: wall_s is %q, want unchanged", tc.b, got["wall_s"])
		}
	}
}

func TestClassifyAllBetterOverridesWideSpread(t *testing.T) {
	a := stats.Summarize([]float64{1.0, 1.5, 1.2, 0.9, 1.4}, "s")
	b := stats.Summarize([]float64{0.5, 0.8, 0.6, 0.85, 0.55}, "s")
	if v, _ := classify(a, b, "lower", 0.05); v != "better" {
		t.Errorf("every run faster, spread wider than the bound: got %q, want better", v)
	}
	if v, _ := classify(b, a, "lower", 0.05); v != "unresolved" {
		t.Errorf("every run slower, spread wider than the bound: got %q, want unresolved", v)
	}
}

// testdata/bench.json is scripts/benchjson's artifact of a go test -bench
// output with -count 5 and -count 3 repetitions.
func TestSnapshotFoldsRepeatedResults(t *testing.T) {
	bench, err := os.ReadFile("testdata/bench.json")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"snapshot", "-date", "test"}, bytes.NewReader(bench), &out, &errOut); code != 0 {
		t.Fatalf("snapshot exit %d: %s", code, errOut.String())
	}
	var snap snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if env := snap.Env; env["cpu"] != "Example CPU @ 2.00GHz" || env["pkg"] != "adaserve" || env["go_version"] == "" {
		t.Errorf("env = %v", env)
	}
	byName := map[string]micro{}
	for _, m := range snap.Micro {
		byName[m.Name] = m
	}
	if len(byName) != 3 {
		t.Errorf("folded into %d benchmarks, want 3: %v", len(byName), snap.Micro)
	}
	lm := byName["BenchmarkLMDist"].Metrics["ns/op"]
	// statistics.quantiles([27.1, 27.5, 26.9, 31.0, 27.2], n=4) in Python.
	if lm.N != 5 || lm.Median != 27.2 || !near(lm.Q1, 27.0) || !near(lm.Q3, 29.25) {
		t.Errorf("LMDist ns/op = %+v, want n 5, median 27.2, q1 27.0, q3 29.25", lm)
	}
	if eng := byName["BenchmarkEngineIteration"].Metrics["allocs/op"]; eng.N != 3 || eng.Median != 189 {
		t.Errorf("EngineIteration allocs/op = %+v", eng)
	}
	if zero := byName["BenchmarkLMDist"].Metrics["allocs/op"]; zero.N != 5 || zero.Median != 0 {
		t.Errorf("LMDist allocs/op, left out of the artifact as 0, = %+v", zero)
	}
	if fig := byName["BenchmarkFigureGrid/parallel=1"].Metrics["attain%"]; fig.N != 1 || fig.Median != 97.2 {
		t.Errorf("FigureGrid attain%% = %+v", fig)
	}
}

func TestJoinedSnapshotDiffs(t *testing.T) {
	dir := t.TempDir()
	joined := filepath.Join(dir, "joined.json")
	bench, err := os.ReadFile("testdata/bench.json")
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"snapshot", "-date", "test", "-perf", "testdata/a.json"}, bytes.NewReader(bench), &out, &errOut); code != 0 {
		t.Fatalf("snapshot exit %d: %s", code, errOut.String())
	}
	if err := os.WriteFile(joined, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code := run([]string{"diff", "-bench", "testdata/BENCHMARK.json", joined, joined}, nil, &out, &errOut)
	if code != 0 || errOut.Len() > 0 {
		t.Fatalf("self-diff exit %d: %s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"wall_s", "BenchmarkLMDist", "allocs/op"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("self-diff lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "worse") || strings.Contains(out.String(), "better") {
		t.Errorf("self-diff reports a change:\n%s", out.String())
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
