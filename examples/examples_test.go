// Package examples pins what every example program prints. Each example
// is built and run in a fresh directory; its stdout, and the files the
// observability example writes there, must match testdata byte for byte.
//
// Regenerate the fixtures with:
//
//	go test ./examples -update
package examples

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	// The examples build on these packages (and, through them, on every
	// other internal package). Linking them into this test keys its cached
	// result to their sources.
	_ "adaserve/internal/experiments"
	_ "adaserve/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the example fixtures instead of comparing")

// writtenFiles lists, per example, the files it writes to its working
// directory. They are pinned by SHA-256 (spans.json alone is ~1 MB).
var writtenFiles = map[string][]string{
	"observability": {"spans.json", "metrics.prom", "metrics.json"},
}

func TestExamplesOutput(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	ran := 0
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" {
			continue
		}
		name := e.Name()
		ran++
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Reading the example's sources keys the cached result to them.
			srcs, err := filepath.Glob(filepath.Join(name, "*.go"))
			if err != nil || len(srcs) == 0 {
				t.Fatalf("no sources for %s: %v", name, err)
			}
			for _, src := range srcs {
				if _, err := os.ReadFile(src); err != nil {
					t.Fatal(err)
				}
			}
			dir := t.TempDir()
			bin := filepath.Join(dir, name)
			if out, err := exec.Command(goBin, "build", "-o", bin, "./"+name).CombinedOutput(); err != nil {
				t.Fatalf("build: %v\n%s", err, out)
			}
			run := exec.Command(bin)
			run.Dir = dir
			var stderr bytes.Buffer
			run.Stderr = &stderr
			stdout, err := run.Output()
			if err != nil {
				t.Fatalf("run: %v\n%s", err, stderr.String())
			}
			got := string(stdout)
			for _, f := range writtenFiles[name] {
				data, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				got += fmt.Sprintf("file %s sha256 %x\n", f, sha256.Sum256(data))
			}
			compareFixture(t, filepath.Join("testdata", name+".out"), got)
		})
	}
	if ran == 0 {
		t.Fatal("no examples found")
	}
}

// compareFixture compares got with the fixture at path (or rewrites it
// under -update), reporting the first differing line.
func compareFixture(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs:\n got: %q\nwant: %q", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: output has %d lines, fixture %d", path, len(gl), len(wl))
}
