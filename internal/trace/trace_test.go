package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/request"
)

// sampleTrace builds a small valid trace covering all column shapes.
func sampleTrace() *Trace {
	return &Trace{
		Header: Header{
			Version:  version,
			TimeUnit: "s",
			Seed:     7,
			Source:   "test",
			Classes: []ClassDef{
				{ID: 0, Name: "coding", TPOT: 0.024, TTFT: 1},
				{ID: 1, Name: "chat", TPOT: 0.05, TTFT: 1},
				{ID: 2, Name: "summarization", TPOT: 0.15, TTFT: 4},
			},
		},
		Arrivals: []Arrival{
			{at: 0.25, class: 1, prompt: 60, output: 80, tenant: -1, session: -1},
			{at: 0.5, class: 0, prompt: 160, output: 90, tenant: 0, session: 3},
			{at: 1.125, class: 2, prompt: 700, output: 80, tenant: 1, session: -1},
			{at: 2.5, class: 1, prompt: 48, output: 64, tenant: -1, session: 2},
		},
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	tr := sampleTrace()
	if err := tr.validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	text := tr.Format()
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse(Format): %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", tr, back)
	}
	if back.Format() != text {
		t.Fatalf("Format not a fixed point:\n%q\n%q", text, back.Format())
	}
	if tr.String() != text {
		t.Fatal("String and Format disagree")
	}
	if got := (&Trace{Header: tr.Header}).Duration(); got != 0 {
		t.Fatalf("empty trace Duration = %g, want 0", got)
	}
}

func TestParseTolerance(t *testing.T) {
	// Blank lines and comments are tolerated and dropped; the reparse of
	// the canonical form equals the annotated original's parse.
	text := "#adaserve-trace v1\n\n# a comment\n#meta time-unit s\n#meta seed 3\n" +
		"#class 1 chat tpot=0.05 ttft=0\n\narrival,class,prompt,output,tenant,session\n" +
		"# another comment\n1,1,10,10,,\n\n"
	tr, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if tr.Header.Seed != 3 || len(tr.Arrivals) != 1 || tr.Arrivals[0].at != 1 {
		t.Fatalf("bad parse: %+v", tr)
	}
	back, err := Parse(tr.Format())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(tr, back) {
		t.Fatalf("canonical reparse mismatch")
	}
}

func TestParseErrors(t *testing.T) {
	const header = "#adaserve-trace v1\n#meta time-unit s\n#meta seed 1\n" +
		"#class 0 coding tpot=0.02 ttft=1\narrival,class,prompt,output,tenant,session\n"
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty input"},
		{"not a trace", "hello\n", "line 1"},
		{"future version", "#adaserve-trace v2\n", "unsupported trace format version 2"},
		{"bad version", "#adaserve-trace vx\n", "bad version"},
		{"duplicate version", "#adaserve-trace v1\n#adaserve-trace v1\n", "duplicate version"},
		{"no body", "#adaserve-trace v1\n#meta seed 1\n", "missing CSV header"},
		{"bad meta", "#adaserve-trace v1\n#meta seed one\n", "line 2: bad seed"},
		{"dup meta", "#adaserve-trace v1\n#meta seed 1\n#meta seed 2\n", "duplicate #meta seed"},
		{"unknown meta", "#adaserve-trace v1\n#meta color red\n", "unknown #meta key"},
		{"bad time unit", "#adaserve-trace v1\n#meta time-unit ms\n", "unsupported time unit"},
		{"bad class line", "#adaserve-trace v1\n#class 0 coding\n", "#class wants"},
		{"bad class id", "#adaserve-trace v1\n#class x coding tpot=1 ttft=0\n", "bad class ID"},
		{"class id order", "#adaserve-trace v1\n#class 1 chat tpot=1 ttft=0\n#class 0 coding tpot=1 ttft=0\n", "strictly increasing"},
		{"zero tpot", "#adaserve-trace v1\n#class 0 coding tpot=0 ttft=0\n", "positive tpot"},
		{"bad csv header", "#adaserve-trace v1\narrival,class\n", "expected CSV header"},
		{"meta after body", header + "#meta seed 2\n", "#meta after"},
		{"class after body", header + "#class 1 chat tpot=1 ttft=0\n", "#class after"},
		{"short row", header + "1,0,10,10,\n", "want 6 columns"},
		{"bad time", header + "x,0,10,10,,\n", "bad arrival time"},
		{"negative time", header + "-1,0,10,10,,\n", "bad arrival time"},
		{"bad class ref", header + "1,9,10,10,,\n", "undeclared class 9"},
		{"zero prompt", header + "1,0,0,10,,\n", "bad prompt length"},
		{"zero output", header + "1,0,10,0,,\n", "bad output length"},
		{"bad tenant", header + "1,0,10,10,x,\n", "bad tenant tag"},
		{"bad session", header + "1,0,10,10,,-2\n", "bad session tag"},
		{"time went backwards", header + "2,0,10,10,,\n1,0,10,10,,\n", "before previous"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.in)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", c.in, c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Parse(%q) error %q, want substring %q", c.in, err, c.want)
			}
		})
	}
}

func TestValidateErrors(t *testing.T) {
	mutate := func(f func(*Trace)) *Trace {
		tr := sampleTrace()
		f(tr)
		return tr
	}
	cases := []struct {
		name string
		tr   *Trace
		want string
	}{
		{"version", mutate(func(tr *Trace) { tr.Header.Version = 2 }), "unsupported format version"},
		{"time unit", mutate(func(tr *Trace) { tr.Header.TimeUnit = "ms" }), "unsupported time unit"},
		{"dup class name", mutate(func(tr *Trace) { tr.Header.Classes[1].Name = "coding" }), "duplicate class name"},
		{"reserved name", mutate(func(tr *Trace) { tr.Header.Classes[1].Name = "a,b" }), "reserved character"},
		{"class order", mutate(func(tr *Trace) { tr.Header.Classes[2].ID = 1 }), "strictly increasing"},
		{"negative ttft", mutate(func(tr *Trace) { tr.Header.Classes[0].TTFT = -1 }), "TTFT"},
		{"unsorted", mutate(func(tr *Trace) { tr.Arrivals[3].at = 0 }), "before previous"},
		{"undeclared", mutate(func(tr *Trace) { tr.Arrivals[0].class = 9 }), "undeclared class"},
		{"bad tag", mutate(func(tr *Trace) { tr.Arrivals[0].tenant = -2 }), "negative tenant"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.tr.validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestStats(t *testing.T) {
	tr := sampleTrace()
	st := tr.Stats()
	if st.Arrivals != 4 {
		t.Fatalf("Arrivals = %d", st.Arrivals)
	}
	if want := []int{1, 2, 1}; !reflect.DeepEqual(st.PerClass, want) {
		t.Fatalf("PerClass = %v, want %v", st.PerClass, want)
	}
	if st.MeanPrompt != (60+160+700+48)/4.0 {
		t.Fatalf("MeanPrompt = %g", st.MeanPrompt)
	}
	if st.MeanRPS != 4/2.5 {
		t.Fatalf("MeanRPS = %g", st.MeanRPS)
	}
	if d := tr.Duration(); d != 2.5 {
		t.Fatalf("Duration = %g", d)
	}
}

func TestSourceReplay(t *testing.T) {
	tr := sampleTrace()
	src, err := NewSource(tr)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	for i, a := range tr.Arrivals {
		at, ok := src.Peek()
		if !ok || at != a.at {
			t.Fatalf("Peek %d = (%g,%v), want %g", i, at, ok, a.at)
		}
		r := src.Pop()
		if r.ID != i || r.ArrivalTime != a.at || int(r.Category) != a.class ||
			r.PromptLen != a.prompt || r.MaxNewTokens != a.output {
			t.Fatalf("Pop %d = %+v, want arrival %+v", i, r, a)
		}
		c, _ := tr.Header.class(a.class)
		if r.TPOTSLO != c.TPOT || r.TTFTSLO != c.TTFT {
			t.Fatalf("Pop %d SLOs (%g,%g), want (%g,%g)", i, r.TPOTSLO, r.TTFTSLO, c.TPOT, c.TTFT)
		}
	}
	if _, ok := src.Peek(); ok {
		t.Fatal("Peek after drain")
	}
	if src.Pop() != nil {
		t.Fatal("Pop after drain")
	}
}

func TestSourceUnknownClass(t *testing.T) {
	tr := sampleTrace()
	tr.Header.Classes[0].Name = "tier-a"
	if _, err := NewSource(tr); err == nil || !strings.Contains(err.Error(), "request category") {
		t.Fatalf("NewSource = %v, want category error", err)
	}
	// The general parser still loads the file — only replay is strict.
	if _, err := Parse(tr.Format()); err != nil {
		t.Fatalf("Parse of non-category class: %v", err)
	}
}

// TestTestdataCanonical validates every committed trace and spec file:
// each must parse and already be in canonical form.
func TestTestdataCanonical(t *testing.T) {
	checkDir(t, "testdata")
}

// checkDir walks a directory tree and asserts every .trace/.spec file
// parses to its own canonical form. Shared with the experiments package's
// committed specs via their own test.
func checkDir(t *testing.T, dir string) {
	t.Helper()
	n := 0
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		ext := filepath.Ext(path)
		if ext != ".trace" && ext != ".spec" {
			return nil
		}
		n++
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			return nil
		}
		var canonical string
		if ext == ".trace" {
			tr, err := Parse(string(data))
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return nil
			}
			canonical = tr.Format()
		} else {
			sp, err := ParseSpec(string(data))
			if err != nil {
				t.Errorf("%s: %v", path, err)
				return nil
			}
			canonical = sp.format()
		}
		if canonical != string(data) {
			t.Errorf("%s: not in canonical form; want:\n%s", path, canonical)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk %s: %v", dir, err)
	}
	if n == 0 {
		t.Fatalf("no .trace/.spec files under %s", dir)
	}
}

func TestCategoryNamesStayMapped(t *testing.T) {
	// Replay maps class names onto categories by String(); if a category
	// rename ever breaks that contract this fails loudly.
	for i := 0; i < request.NumCategories; i++ {
		name := request.Category(i).String()
		if err := validClassName(name); err != nil {
			t.Fatalf("category %d name %q not a valid class name: %v", i, name, err)
		}
	}
}
