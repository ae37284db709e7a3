package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt instead of comparing")

// goldenRuns are short invocations covering every workload source and
// every control: their stdout is pinned in testdata/golden.txt. Each runs
// in a fresh directory holding a copy of the committed bursty spec.
var goldenRuns = [][]string{
	{"-duration", "10"},
	{"-rate-profile", "spike", "-live", "-duration", "10"},
	{"-roles", "2P2D", "-duration", "10"},
	{"-replicas", "3", "-autoscale", "rate-prop", "-live", "-duration", "20"},
	{"-replicas", "2", "-adaptive", "-admission", "-duration", "10"},
	{"-replicas", "3", "-faults", "crash@3+2:r0", "-recovery", "retry+hedge", "-live", "-duration", "10"},
	{"-replicas", "2", "-prefix", "-router", "prefix-affinity", "-live"},
	{"-spec", "bursty.spec", "-replicas", "2", "-admission", "-duration", "10"},
	{"-export", "out.trace", "-duration", "10"},
	{"-percentiles", "-system", "vLLM-Spec (6)", "-duration", "10"},
}

// buildSim compiles this command into a temporary directory.
func buildSim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "adaserve-sim")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestGoldenCLIOutput pins the full stdout of every golden invocation, and
// the trace file -export writes.
func TestGoldenCLIOutput(t *testing.T) {
	bin := buildSim(t)
	spec, err := os.ReadFile("../../internal/experiments/testdata/specs/bursty.spec")
	if err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, args := range goldenRuns {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "bursty.spec"), spec, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("adaserve-sim %q: %v\n%s", args, err, stderr.String())
		}
		got.WriteString("$ adaserve-sim " + strings.Join(args, " ") + "\n")
		got.Write(out)
		if exported, err := os.ReadFile(filepath.Join(dir, "out.trace")); err == nil {
			got.WriteString("$ cat out.trace\n")
			got.Write(exported)
		}
	}
	path := filepath.Join("testdata", "golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%s: output has %d lines, fixture %d", path, len(gl), len(wl))
	}
}

// TestBadNumericFlagsExit is the numeric-flag table: a rate, duration,
// scale or interval that is not positive and finite, or an urgent share
// outside [0, 1], exits non-zero with a one-line error naming the flag
// instead of hanging, printing NaN reports or running a default.
func TestBadNumericFlagsExit(t *testing.T) {
	bin := buildSim(t)
	for _, args := range [][]string{
		{"-rps", "NaN"},
		{"-rps", "0"},
		{"-rps", "-1"},
		{"-replicas", "2", "-rps", "Inf"},
		{"-duration", "NaN"},
		{"-duration", "-5"},
		{"-urgent", "-0.2"},
		{"-urgent", "1.5"},
		{"-slo-scale", "NaN"},
		{"-snapshot-every", "NaN"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			assertOneLineFailure(t, bin, args, args[len(args)-2])
		})
	}
}

// assertOneLineFailure runs bin with args and requires a prompt non-zero
// exit whose stderr is one line mentioning want.
func assertOneLineFailure(t *testing.T, bin string, args []string, want string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatalf("%q did not exit within 10s", args)
	}
	if err == nil {
		t.Fatalf("%q exited 0", args)
	}
	msg := strings.TrimSpace(stderr.String())
	if strings.Count(msg, "\n") != 0 || !strings.Contains(msg, want) {
		t.Fatalf("%q: stderr %q, want one line mentioning %q", args, msg, want)
	}
}
