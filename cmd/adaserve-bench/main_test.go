package main

import (
	"bytes"
	"context"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"adaserve/internal/faults"
)

// TestParseExps is the -exp validation table: every known token (including
// the autoscale experiment) parses, lists parse as sets, and any unknown
// token fails with the one-line error that names the valid set.
func TestParseExps(t *testing.T) {
	for _, name := range knownExps() {
		if _, err := parseExps(name); err != nil {
			t.Errorf("known experiment %q rejected: %v", name, err)
		}
	}
	cases := []struct {
		name    string
		exps    string
		want    []string
		wantErr string
	}{
		{name: "list", exps: "fig8,fig9,autoscale", want: []string{"fig8", "fig9", "autoscale"}},
		{name: "spaces", exps: " cluster , disagg ", want: []string{"cluster", "disagg"}},
		{name: "all", exps: "all", want: []string{"all"}},
		{name: "unknown", exps: "fig8,bogus", wantErr: `unknown -exp "bogus"`},
		{name: "near miss", exps: "autoscaling", wantErr: `unknown -exp "autoscaling"`},
		{name: "empty token", exps: "fig8,", wantErr: `unknown -exp ""`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseExps(c.exps)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				if err != nil && !strings.Contains(err.Error(), "autoscale") {
					t.Fatalf("error %v does not list the valid experiments", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("parsed %d experiments, want %d", len(got), len(c.want))
			}
			for _, w := range c.want {
				if !got[w] {
					t.Fatalf("parsed set %v missing %q", got, w)
				}
			}
		})
	}
}

// TestBenchFaultsFlag is the -faults validation table: the schedule is
// parsed up front, so a malformed spec exits with a one-line error before
// any experiment runs.
func TestBenchFaultsFlag(t *testing.T) {
	for _, ok := range []string{
		"",
		"crash@30+10:r0",
		"crash@30+10:r0; slow@60+20:x4; link@40+30:p0.3; hazard@0.01+10",
	} {
		if _, err := faults.ParseSpec(ok); err != nil {
			t.Errorf("valid -faults %q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{
		"crash",            // no @time
		"crash@-5",         // negative time
		"slow@1+2",         // no factor
		"link@1+2:p0.5:r1", // link is cluster-wide
		"flood@1",          // unknown kind
	} {
		if _, err := faults.ParseSpec(bad); err == nil {
			t.Errorf("malformed -faults %q accepted", bad)
		}
	}
	if _, err := parseExps("faults"); err != nil {
		t.Errorf("-exp faults rejected: %v", err)
	}
}

// TestExpUsageListsEveryExperiment: the -exp help text is built from
// knownExps, so every experiment the flag accepts is named in it.
func TestExpUsageListsEveryExperiment(t *testing.T) {
	usage := expUsage()
	listed := map[string]bool{}
	for _, f := range strings.FieldsFunc(usage, func(r rune) bool { return r == ' ' || r == ',' }) {
		listed[f] = true
	}
	for _, name := range knownExps() {
		if !listed[name] {
			t.Errorf("-exp help %q omits %q", usage, name)
		}
	}
}

// TestBadDurationExits: a -duration that is not positive and finite exits
// non-zero with a one-line error before any experiment starts, instead of
// hanging (NaN) or printing NaN tables.
func TestBadDurationExits(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "adaserve-bench")
	goBin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, d := range []string{"NaN", "-5", "0", "Inf"} {
		t.Run(d, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "-exp", "fig15", "-duration", d)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatalf("-duration %s did not exit within 10s", d)
			}
			msg := strings.TrimSpace(stderr.String())
			if err == nil || strings.Contains(msg, "\n") || !strings.Contains(msg, "-duration") {
				t.Fatalf("-duration %s: err %v, stderr %q; want a one-line -duration error", d, err, msg)
			}
		})
	}
}
