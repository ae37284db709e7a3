package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaserve/internal/trace"
)

// writeFile drops content into a temp file and returns its path.
func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const testSpec = `#adaserve-spec v1
#meta seed 3
#meta duration 12
#meta name tiny
cohort a class=chat rate=2 arrival=poisson prompt=fixed:32 output=fixed:32
`

// TestDispatchErrors is the subcommand validation table: unknown
// subcommands, malformed or missing files, and format-version mismatches
// all fail with a one-line error (main turns these into a non-zero exit).
func TestDispatchErrors(t *testing.T) {
	dir := t.TempDir()
	badSpec := writeFile(t, dir, "bad.spec", "#adaserve-spec v1\n#meta duration 5\ncohort a class=chat arrival=poisson prompt=fixed:1 output=fixed:1\n")
	v2Spec := writeFile(t, dir, "v2.spec", "#adaserve-spec v2\n")
	v2Trace := writeFile(t, dir, "v2.trace", "#adaserve-trace v2\n")
	notTrace := writeFile(t, dir, "not.trace", "time_s,requests\n0,3\n")
	burstSpec := writeFile(t, dir, "b.spec", "#adaserve-spec v1\n#meta duration 30\ncohort b class=chat arrival=bursts:6,30,1 prompt=fixed:60 output=fixed:16\n")
	cases := []struct {
		name    string
		cmd     string
		args    []string
		wantErr string
	}{
		{"no arguments", "", nil, "needs a subcommand: gen or stats"},
		{"flags only", "-kind", []string{"real", "-rps", "4"}, "needs a subcommand: gen or stats"},
		{"unknown subcommand", "replay", nil, "unknown subcommand"},
		{"gen without spec", "gen", nil, "needs -spec"},
		{"gen missing file", "gen", []string{"-spec", filepath.Join(dir, "nope.spec")}, "no such file"},
		{"gen bad spec", "gen", []string{"-spec", badSpec}, "needs rate="},
		{"gen spec version mismatch", "gen", []string{"-spec", v2Spec}, "unsupported spec format version 2"},
		{"gen unknown model", "gen", []string{"-spec", v2Spec, "-model", "gpt"}, "unknown model"},
		{"gen stray argument", "gen", []string{"-spec", v2Spec, "extra"}, "unexpected argument"},
		{"gen negative duration", "gen", []string{"-spec", burstSpec, "-duration", "-5"}, "must be positive and finite"},
		{"gen infinite duration", "gen", []string{"-spec", burstSpec, "-duration", "Inf"}, "must be positive and finite"},
		{"stats without file", "stats", nil, "exactly one trace file"},
		{"stats missing file", "stats", []string{filepath.Join(dir, "nope.trace")}, "no such file"},
		{"stats version mismatch", "stats", []string{v2Trace}, "unsupported trace format version 2"},
		{"stats not a trace", "stats", []string{notTrace}, "not a trace file"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			err := dispatch(&out, c.cmd, c.args)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("dispatch error = %v, want one containing %q", err, c.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestGenStats pins the gen → stats loop: a spec compiles to a canonical
// trace file, deterministically per seed, and stats reads it back.
func TestGenStats(t *testing.T) {
	dir := t.TempDir()
	spec := writeFile(t, dir, "tiny.spec", testSpec)
	out := filepath.Join(dir, "tiny.trace")

	var w strings.Builder
	if err := dispatch(&w, "gen", []string{"-spec", spec, "-o", out}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(w.String(), "wrote "+out) {
		t.Fatalf("gen summary: %q", w.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Parse(string(data))
	if err != nil {
		t.Fatalf("gen output does not parse: %v", err)
	}
	if tr.Format() != string(data) {
		t.Fatal("gen output not canonical")
	}
	if tr.Header.Source != "spec:tiny" || tr.Header.Seed != 3 || len(tr.Arrivals) == 0 {
		t.Fatalf("gen output header/body: %+v", tr.Header)
	}

	// Stdout mode (no -o) emits the identical trace text.
	var direct strings.Builder
	if err := dispatch(&direct, "gen", []string{"-spec", spec}); err != nil {
		t.Fatal(err)
	}
	if direct.String() != string(data) {
		t.Fatal("gen -o and stdout outputs differ")
	}

	// A seed override changes the trace and is recorded in the header.
	var reseeded strings.Builder
	if err := dispatch(&reseeded, "gen", []string{"-spec", spec, "-seed", "99"}); err != nil {
		t.Fatal(err)
	}
	if reseeded.String() == string(data) {
		t.Fatal("seed override produced identical trace")
	}

	// The qwen setup resolves too; the coding class's TPOT SLO scales with
	// the baseline decode latency, so the two setups compile different
	// headers from the same spec.
	coding := writeFile(t, dir, "coding.spec",
		"#adaserve-spec v1\n#meta seed 3\n#meta duration 12\ncohort a class=coding rate=2 arrival=poisson prompt=fixed:32 output=fixed:32\n")
	var llamaOut, qwenOut strings.Builder
	if err := dispatch(&llamaOut, "gen", []string{"-spec", coding}); err != nil {
		t.Fatal(err)
	}
	if err := dispatch(&qwenOut, "gen", []string{"-spec", coding, "-model", "qwen"}); err != nil {
		t.Fatal(err)
	}
	if qwenOut.String() == llamaOut.String() {
		t.Fatal("qwen and llama setups compiled identical traces")
	}

	var stats strings.Builder
	if err := dispatch(&stats, "stats", []string{out}); err != nil {
		t.Fatal(err)
	}
	got := stats.String()
	for _, want := range []string{"format:   v1 (s)", "seed:     3", "source:   spec:tiny", "chat"} {
		if !strings.Contains(got, want) {
			t.Fatalf("stats output missing %q:\n%s", want, got)
		}
	}
}
