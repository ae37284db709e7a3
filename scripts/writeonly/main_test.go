package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestFixtureFlagsExactlyWriteOnly runs the checker over testdata/fixture,
// whose fields cover each rule: composite-literal, op= and ++ writes, a
// field read only by a _test.go file, a tagged field, a nested struct and a
// generic struct read through an instantiation.
func TestFixtureFlagsExactlyWriteOnly(t *testing.T) {
	found, declared, err := writeOnly(filepath.Join("testdata", "fixture"))
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"fix.Box.Seen",
		"fix.Counters.Acc",
		"fix.Counters.Bumped",
		"fix.Counters.Nested.Lost",
		"fix.Counters.Plain",
		"fix.Counters.TestOnly",
	}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("flagged %q, want %q", found, want)
	}
	// Tagged is not counted: 11 fields minus the tagged one.
	if declared != 10 {
		t.Fatalf("checked %d fields, want 10", declared)
	}
}

// TestAllowEntries pins the allow file's split between the phases: only
// `field` lines belong to this phase, a listed write-only field is not
// dead, and a field entry that names no write-only field is stale, whether
// the field is read or does not exist.
func TestAllowEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow")
	allow := `# comment
kvcache.Allocator.CheckInvariants  a function: phase 1's entry
field fix.Counters.Plain           kept on purpose
field fix.Counters.Read            read by cmd/app: stale
field fix.Counters.Gone            no such field: stale
`
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllow(path)
	if err != nil {
		t.Fatal(err)
	}
	wantAllowed := map[string]bool{
		"fix.Counters.Plain": true, "fix.Counters.Read": true, "fix.Counters.Gone": true,
	}
	if !reflect.DeepEqual(allowed, wantAllowed) {
		t.Fatalf("allowed %v, want %v", allowed, wantAllowed)
	}
	dead, stale := compare([]string{"fix.Counters.Acc", "fix.Counters.Plain"}, allowed)
	if want := []string{"fix.Counters.Acc"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead %q, want %q", dead, want)
	}
	if want := []string{"fix.Counters.Gone", "fix.Counters.Read"}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale %q, want %q", stale, want)
	}
}

// TestRunReports drives the command on the fixture: write-only fields the
// allow file misses and stale entries each fail it with their names on
// stderr, a complete allow file passes it, and a missing module cannot run.
func TestRunReports(t *testing.T) {
	fixture := filepath.Join("testdata", "fixture")
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	complete := write("complete", `field fix.Box.Seen               x
field fix.Counters.Acc           x
field fix.Counters.Bumped        x
field fix.Counters.Nested.Lost   x
field fix.Counters.Plain         x
field fix.Counters.TestOnly      x
`)
	partial := write("partial", `field fix.Counters.Acc  x
field fix.Counters.Read  read by cmd/app
`)
	for _, c := range []struct {
		name   string
		args   []string
		status int
		stdout string
		stderr []string
	}{
		{"complete", []string{"-allow", complete, fixture}, 0, "writeonly: 10 fields under internal/, none write-only outside " + complete + "\n", nil},
		{"partial", []string{"-allow", partial, fixture}, 1, "",
			[]string{"  fix.Box.Seen\n", "  fix.Counters.Plain\n", "names fields that are not write-only:\n  fix.Counters.Read\n"}},
		{"no module", []string{filepath.Join(dir, "nothing")}, 2, "", []string{"go.mod"}},
		{"bad flag", []string{"-nosuch"}, 2, "", []string{"-nosuch"}},
	} {
		var stdout, stderr strings.Builder
		if status := run(c.args, &stdout, &stderr); status != c.status {
			t.Errorf("%s: status %d, want %d (stderr %q)", c.name, status, c.status, stderr.String())
		}
		if stdout.String() != c.stdout {
			t.Errorf("%s: stdout %q, want %q", c.name, stdout.String(), c.stdout)
		}
		for _, want := range c.stderr {
			if !strings.Contains(stderr.String(), want) {
				t.Errorf("%s: stderr %q lacks %q", c.name, stderr.String(), want)
			}
		}
	}
}
