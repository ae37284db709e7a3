package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var fixture = filepath.Join("testdata", "fixture")

func loadFixture(t *testing.T) *loader {
	t.Helper()
	l, err := load(fixture)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFixtureFlagsExactlyWriteOnly runs phase 2 over testdata/fixture, whose
// fields cover each rule: composite-literal, op= and ++ writes, the same
// writes on an element, self-append and self-reslice, a field read only as
// x.f[i] on a right-hand side, a field read only by a _test.go file, a
// tagged field, a nested struct and a generic struct read through an
// instantiation.
func TestFixtureFlagsExactlyWriteOnly(t *testing.T) {
	found, declared := writeOnly(loadFixture(t))
	want := []string{
		"fix.Box.Seen",
		"fix.Counters.Acc",
		"fix.Counters.Bumped",
		"fix.Counters.Nested.Lost",
		"fix.Counters.Plain",
		"fix.Counters.TestOnly",
		"fix.Elems.Acc",
		"fix.Elems.Bumped",
		"fix.Elems.Cut",
		"fix.Elems.Grown",
		"fix.Elems.Set",
	}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("flagged %q, want %q", found, want)
	}
	// Counters' 8 untagged fields (Nested and its two included), Box's 2,
	// Elems' 6, exp's Config 2 and Result 1.
	if declared != 19 {
		t.Fatalf("checked %d fields, want 19", declared)
	}
}

// TestFixtureFlagsExactlyPackageLocal runs phase 3 over testdata/fixture.
// exp declares a func, a const and a field only it uses (the func is also
// called by an external test, which does not count), a type reached only
// through the result of a func cmd/app calls, and exported methods that
// satisfy fmt.Stringer, sort.Interface, a same-package interface and, once
// promoted through embedding, an interface only the embedding type
// satisfies. fix's fields are read or written by fix alone, except those
// cmd/app reads.
func TestFixtureFlagsExactlyPackageLocal(t *testing.T) {
	found, declared := packageLocal(loadFixture(t))
	want := []string{
		"exp.Config.Knob",
		"exp.Limit",
		"exp.Local",
		"fix.Box.Seen",
		"fix.Counters.Acc",
		"fix.Counters.Bumped",
		"fix.Counters.Nested.Lost",
		"fix.Counters.Plain",
		"fix.Counters.TestOnly",
		"fix.Elems.Acc",
		"fix.Elems.Bumped",
		"fix.Elems.Cut",
		"fix.Elems.Grown",
		"fix.Elems.Peeked",
		"fix.Elems.Set",
	}
	if !reflect.DeepEqual(found, want) {
		t.Fatalf("flagged %q, want %q", found, want)
	}
	// exp: Limit, Local, Config (+2 fields), Result (+1), Build and the
	// methods String, Len, Less, Swap, Run, Describe and Tag (the unexported
	// interfaces' methods are not counted); fix: Counters (+8 untagged),
	// New, Box (+2), NewBox, Elems (+6), NewElems.
	if declared != 37 {
		t.Fatalf("checked %d exported names, want 37", declared)
	}
}

// TestAllowEntries pins the allow file's split between the phases: phase 2
// reads only `field` lines and phase 3 only `export` lines; comments and
// phase 1's bare function names belong to neither. A listed name is not
// reported, and an entry that names nothing the phase reports is stale,
// whether the name is in use or does not exist.
func TestAllowEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allow")
	allow := `# comment
kvcache.Allocator.checkInvariants  a function: phase 1's entry
field fix.Counters.Plain           kept on purpose
field fix.Counters.Read            read by cmd/app: stale
field fix.Counters.Gone            no such field: stale
export exp.Limit                   kept on purpose
export exp.Build                   used by cmd/app: stale
`
	if err := os.WriteFile(path, []byte(allow), 0o644); err != nil {
		t.Fatal(err)
	}
	allowed, err := readAllow(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]bool{
		"field":  {"fix.Counters.Plain": true, "fix.Counters.Read": true, "fix.Counters.Gone": true},
		"export": {"exp.Limit": true, "exp.Build": true},
	}
	if !reflect.DeepEqual(allowed, want) {
		t.Fatalf("allowed %v, want %v", allowed, want)
	}
	dead, stale := compare([]string{"fix.Counters.Acc", "fix.Counters.Plain"}, allowed["field"])
	if want := []string{"fix.Counters.Acc"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead %q, want %q", dead, want)
	}
	if want := []string{"fix.Counters.Gone", "fix.Counters.Read"}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale %q, want %q", stale, want)
	}
	dead, stale = compare([]string{"exp.Limit", "exp.Local"}, allowed["export"])
	if want := []string{"exp.Local"}; !reflect.DeepEqual(dead, want) {
		t.Fatalf("dead %q, want %q", dead, want)
	}
	if want := []string{"exp.Build"}; !reflect.DeepEqual(stale, want) {
		t.Fatalf("stale %q, want %q", stale, want)
	}
}

// TestRunReports drives the command on the fixture: names the allow file
// misses and stale entries each fail it with their names on stderr, a
// bogus entry fails only its own phase, a complete allow file passes it,
// and a missing module or a bad flag cannot run.
func TestRunReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	fields := `field fix.Box.Seen               x
field fix.Counters.Acc           x
field fix.Counters.Bumped        x
field fix.Counters.Nested.Lost   x
field fix.Counters.Plain         x
field fix.Counters.TestOnly      x
field fix.Elems.Acc              x
field fix.Elems.Bumped           x
field fix.Elems.Cut              x
field fix.Elems.Grown            x
field fix.Elems.Set              x
`
	exports := `export exp.Config.Knob           x
export exp.Limit                 x
export exp.Local                 x
export fix.Box.Seen              x
export fix.Counters.Acc          x
export fix.Counters.Bumped       x
export fix.Counters.Nested.Lost  x
export fix.Counters.Plain        x
export fix.Counters.TestOnly     x
export fix.Elems.Acc             x
export fix.Elems.Bumped          x
export fix.Elems.Cut             x
export fix.Elems.Grown           x
export fix.Elems.Peeked          x
export fix.Elems.Set             x
`
	complete := write("complete", "kvcache.Allocator.checkInvariants  phase 1\n"+fields+exports)
	bogusField := write("bogus-field", fields+exports+"field fix.Counters.Read  read by cmd/app\n")
	bogusExport := write("bogus-export", fields+exports+"export exp.Build  used by cmd/app\n")
	partial := write("partial", `field fix.Counters.Acc  x
export exp.Local        x
`)
	ok := func(path string, phases ...bool) string {
		out := ""
		if phases[0] {
			out += "writeonly: 19 fields under internal/, none reported outside " + path + "\n"
		}
		if phases[1] {
			out += "writeonly: 37 exported names under internal/, none reported outside " + path + "\n"
		}
		return out
	}
	for _, c := range []struct {
		name    string
		args    []string
		status  int
		stdout  string
		stderr  []string
		without []string
	}{
		{"complete", []string{"-allow", complete, fixture}, 0, ok(complete, true, true), nil, nil},
		{"bogus field", []string{"-allow", bogusField, fixture}, 1, ok(bogusField, false, true),
			[]string{"has `field` entries that name nothing it reports:\n  fix.Counters.Read\n"}, []string{"`export` entries"}},
		{"bogus export", []string{"-allow", bogusExport, fixture}, 1, ok(bogusExport, true, false),
			[]string{"has `export` entries that name nothing it reports:\n  exp.Build\n"}, []string{"`field` entries"}},
		{"partial", []string{"-allow", partial, fixture}, 1, "",
			[]string{"no non-test code reads:\n  fix.Box.Seen\n  fix.Counters.Bumped\n", "  fix.Elems.Set\n", "non-test code uses:\n  exp.Config.Knob\n  exp.Limit\n  fix.Box.Seen\n"},
			[]string{"  exp.Local\n"}},
		{"no module", []string{filepath.Join(dir, "nothing")}, 2, "", []string{"go.mod"}, nil},
		{"bad flag", []string{"-nosuch"}, 2, "", []string{"-nosuch"}, nil},
		{"no allow file", []string{"-allow", filepath.Join(dir, "none"), fixture}, 2, "", []string{"none"}, nil},
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
		for _, not := range c.without {
			if strings.Contains(stderr.String(), not) {
				t.Errorf("%s: stderr %q has %q", c.name, stderr.String(), not)
			}
		}
	}
}
