package trace

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const specText = `#adaserve-spec v1
#meta seed 7
#meta duration 30
#meta name sample
cohort ide class=coding rate=1.5 arrival=poisson prompt=lognormal:160,0.45,32,1024 output=lognormal:90,0.5,16,512
cohort support class=chat arrival=bursts:10,12,2 prompt=uniform:16,256 output=fixed:64 tenants=3 sessions=8
cohort digest class=summarization rate=0.5 arrival=poisson:diurnal prompt=pareto:256,1.2,4096 output=lognormal:80,0.35,32,512 diurnal=0.4:30 tpot=0.2 ttft=5
`

func TestSpecRoundTrip(t *testing.T) {
	s, err := ParseSpec(specText)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.seed != 7 || s.duration != 30 || s.Name != "sample" || len(s.cohorts) != 3 {
		t.Fatalf("bad spec: %+v", s)
	}
	if s.format() != specText {
		t.Fatalf("Format != input:\n%s", s.format())
	}
	back, err := ParseSpec(s.format())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", s, back)
	}
	c := s.cohorts[1]
	if c.arrival.kind != "bursts" || c.arrival.interval != 10 || c.arrival.size != 12 || c.arrival.width != 2 {
		t.Fatalf("bursts parse: %+v", c.arrival)
	}
	if c.tenants != 3 || c.sessions != 8 || c.tpot != -1 || c.ttft != -1 {
		t.Fatalf("cohort defaults: %+v", c)
	}
	if d := s.cohorts[2].diurnal; d.amp != 0.4 || d.period != 30 {
		t.Fatalf("diurnal parse: %+v", d)
	}
}

func TestSpecNormalization(t *testing.T) {
	// poisson:constant and a default-period diurnal normalize to the
	// canonical spellings.
	in := "#adaserve-spec v1\n#meta seed 1\n#meta duration 10\n" +
		"cohort a class=chat rate=1 arrival=poisson:constant prompt=fixed:10 output=fixed:10 diurnal=0.5 weekly=0\n"
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	c := s.cohorts[0]
	if c.arrival.profile != "constant" {
		t.Fatalf("profile = %q", c.arrival.profile)
	}
	if c.diurnal.period != diurnalPeriod {
		t.Fatalf("diurnal period = %g", c.diurnal.period)
	}
	if c.weekly != (modulation{}) {
		t.Fatalf("zero-amp weekly should normalize away: %+v", c.weekly)
	}
	want := "cohort a class=chat rate=1 arrival=poisson prompt=fixed:10 output=fixed:10 diurnal=0.5:86400"
	if got := c.format(); got != want {
		t.Fatalf("canonical cohort:\n got %q\nwant %q", got, want)
	}
	back, err := ParseSpec(s.format())
	if err != nil || !reflect.DeepEqual(s, back) {
		t.Fatalf("canonical reparse mismatch (%v)", err)
	}
}

func TestSpecParseErrors(t *testing.T) {
	const head = "#adaserve-spec v1\n#meta seed 1\n#meta duration 10\n"
	const okCohort = "cohort a class=chat rate=1 arrival=poisson prompt=fixed:10 output=fixed:10\n"
	cases := []struct {
		name, in, want string
	}{
		{"empty", "", "empty input"},
		{"wrong magic", "#adaserve-trace v1\n", "not a workload spec"},
		{"future version", "#adaserve-spec v9\n", "unsupported spec format version 9"},
		{"no duration", "#adaserve-spec v1\n#meta seed 1\n" + okCohort, "missing #meta duration"},
		{"bad duration", "#adaserve-spec v1\n#meta duration -5\n", "bad duration"},
		{"no cohorts", head, "no cohorts"},
		{"junk line", head + "cluster a\n", "expected a cohort line"},
		{"dup cohort", head + okCohort + okCohort, "duplicate cohort name"},
		{"no class", head + "cohort a rate=1 arrival=poisson prompt=fixed:1 output=fixed:1\n", "missing class="},
		{"bad class", head + "cohort a class=video rate=1 arrival=poisson prompt=fixed:1 output=fixed:1\n", "unknown class"},
		{"no rate", head + "cohort a class=chat arrival=poisson prompt=fixed:1 output=fixed:1\n", "needs rate="},
		{"bursts with rate", head + "cohort a class=chat rate=1 arrival=bursts:5,5,1 prompt=fixed:1 output=fixed:1\n", "takes no rate"},
		{"wide burst", head + "cohort a class=chat arrival=bursts:5,5,6 prompt=fixed:1 output=fixed:1\n", "exceeds interval"},
		{"bad profile", head + "cohort a class=chat rate=1 arrival=poisson:tidal prompt=fixed:1 output=fixed:1\n", "unknown rate profile"},
		{"bad arrival", head + "cohort a class=chat arrival=weibull prompt=fixed:1 output=fixed:1\n", "unknown arrival process"},
		{"no prompt", head + "cohort a class=chat rate=1 arrival=poisson output=fixed:1\n", "missing prompt="},
		{"bad dist", head + "cohort a class=chat rate=1 arrival=poisson prompt=zipf:3 output=fixed:1\n", "unknown distribution"},
		{"bad lognormal", head + "cohort a class=chat rate=1 arrival=poisson prompt=lognormal:0,1,1,2 output=fixed:1\n", "bad median"},
		{"bad pareto", head + "cohort a class=chat rate=1 arrival=poisson prompt=pareto:1,0,2 output=fixed:1\n", "bad alpha"},
		{"inverted uniform", head + "cohort a class=chat rate=1 arrival=poisson prompt=uniform:9,3 output=fixed:1\n", "bad max"},
		{"bad fixed", head + "cohort a class=chat rate=1 arrival=poisson prompt=fixed:0 output=fixed:1\n", "fixed wants"},
		{"bad amp", head + "cohort a class=chat rate=1 arrival=poisson prompt=fixed:1 output=fixed:1 diurnal=1.5\n", "amplitude"},
		{"bad period", head + "cohort a class=chat rate=1 arrival=poisson prompt=fixed:1 output=fixed:1 weekly=0.5:0\n", "period"},
		{"bad option", head + "cohort a class=chat rate=1 arrival=poisson prompt=fixed:1 output=fixed:1 color=red\n", "unknown cohort option"},
		{"dup option", head + "cohort a class=chat rate=1 rate=2 arrival=poisson prompt=fixed:1 output=fixed:1\n", "duplicate cohort option"},
		{"bad tpot", head + "cohort a class=chat rate=1 arrival=poisson prompt=fixed:1 output=fixed:1 tpot=0\n", "bad tpot"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec(c.in)
			if err == nil {
				t.Fatalf("ParseSpec succeeded, want error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want substring %q", err, c.want)
			}
		})
	}
}

func TestCompileDeterministic(t *testing.T) {
	data, err := os.ReadFile("testdata/sample.spec")
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	s, err := ParseSpec(string(data))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	opts := CompileOptions{BaselineLatency: 0.02}
	a, err := Compile(s, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	b, err := Compile(s, opts)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if a.Format() != b.Format() {
		t.Fatal("same spec+seed compiled to different traces")
	}
	if len(a.Arrivals) == 0 {
		t.Fatal("compiled trace is empty")
	}
	c, err := Compile(s, CompileOptions{BaselineLatency: 0.02, Seed: 999})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if c.Header.Seed != 999 {
		t.Fatalf("seed override not recorded: %d", c.Header.Seed)
	}
	if a.Format() == c.Format() {
		t.Fatal("different seeds compiled to identical traces")
	}
	// The result is a valid, replayable trace in canonical form.
	back, err := Parse(a.Format())
	if err != nil {
		t.Fatalf("Parse(compiled): %v", err)
	}
	if back.Format() != a.Format() {
		t.Fatal("compiled trace not canonical")
	}
	if _, err := NewSource(a); err != nil {
		t.Fatalf("NewSource(compiled): %v", err)
	}
	if a.Header.Source != "spec:sample" {
		t.Fatalf("provenance = %q", a.Header.Source)
	}
}

func TestCompileClasses(t *testing.T) {
	s, err := ParseSpec(specText)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	tr, err := Compile(s, CompileOptions{BaselineLatency: 0.02})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	want := []ClassDef{
		{ID: 0, Name: "coding", TPOT: 1.2 * 0.02, TTFT: 1},
		{ID: 1, Name: "chat", TPOT: 0.05, TTFT: 1},
		{ID: 2, Name: "summarization", TPOT: 0.2, TTFT: 5}, // cohort override
	}
	if !reflect.DeepEqual(tr.Header.Classes, want) {
		t.Fatalf("classes = %+v, want %+v", tr.Header.Classes, want)
	}

	// Two cohorts disagreeing on a shared class must fail.
	conflict := "#adaserve-spec v1\n#meta seed 1\n#meta duration 10\n" +
		"cohort a class=chat rate=1 arrival=poisson prompt=fixed:10 output=fixed:10 tpot=0.05\n" +
		"cohort b class=chat rate=1 arrival=poisson prompt=fixed:10 output=fixed:10 tpot=0.08\n"
	cs, err := ParseSpec(conflict)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if _, err := Compile(cs, CompileOptions{BaselineLatency: 0.02}); err == nil ||
		!strings.Contains(err.Error(), "disagree") {
		t.Fatalf("Compile = %v, want SLO disagreement error", err)
	}

	if _, err := Compile(s, CompileOptions{}); err == nil {
		t.Fatal("Compile without BaselineLatency should fail")
	}
	// A non-positive or non-finite duration override fails instead of
	// sampling arrivals forever.
	for _, d := range []float64{-5, math.NaN(), math.Inf(1)} {
		if _, err := Compile(s, CompileOptions{BaselineLatency: 0.02, Duration: d}); err == nil ||
			!strings.Contains(err.Error(), "must be positive and finite") {
			t.Fatalf("Compile(Duration %g) = %v, want a duration error", d, err)
		}
	}
}

func TestCompileTagsAndClipping(t *testing.T) {
	in := "#adaserve-spec v1\n#meta seed 11\n#meta duration 20\n" +
		"cohort a class=chat rate=3 arrival=poisson prompt=fixed:6000 output=fixed:4000 tenants=2 sessions=4\n" +
		"cohort b class=coding rate=3 arrival=poisson prompt=fixed:10 output=fixed:10 tenants=3\n"
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	tr, err := Compile(s, CompileOptions{BaselineLatency: 0.02})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	sawA, sawB := false, false
	for _, a := range tr.Arrivals {
		switch a.class {
		case 1: // cohort a
			sawA = true
			if a.prompt+a.output > 8192 {
				t.Fatalf("context clip failed: %d+%d", a.prompt, a.output)
			}
			if a.tenant < 0 || a.tenant > 1 || a.session < 0 || a.session > 3 {
				t.Fatalf("cohort a tags out of range: %+v", a)
			}
		case 0: // cohort b: tenant IDs namespaced after cohort a's
			sawB = true
			if a.tenant < 2 || a.tenant > 4 {
				t.Fatalf("cohort b tenant %d outside [2,4]", a.tenant)
			}
			if a.session != -1 {
				t.Fatalf("cohort b should be sessionless: %+v", a)
			}
		}
	}
	if !sawA || !sawB {
		t.Fatalf("missing cohort arrivals (a=%v b=%v)", sawA, sawB)
	}
}

func TestCompileBursts(t *testing.T) {
	in := "#adaserve-spec v1\n#meta seed 5\n#meta duration 40\n" +
		"cohort a class=chat arrival=bursts:10,20,2 prompt=fixed:10 output=fixed:10\n"
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	tr, err := Compile(s, CompileOptions{BaselineLatency: 0.02})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	// Four burst centers (5, 15, 25, 35), each ±1s wide: every arrival
	// must land inside a burst window, and each window must be populated.
	hit := [4]int{}
	for _, a := range tr.Arrivals {
		in := false
		for k := 0; k < 4; k++ {
			center := 10*float64(k) + 5
			if a.at >= center-1 && a.at < center+1 {
				hit[k]++
				in = true
				break
			}
		}
		if !in {
			t.Fatalf("arrival %g outside every burst window", a.at)
		}
	}
	for k, n := range hit {
		if n == 0 {
			t.Fatalf("burst %d empty", k)
		}
	}
	// ~20 arrivals per burst on average.
	if len(tr.Arrivals) < 40 || len(tr.Arrivals) > 160 {
		t.Fatalf("burst volume off: %d arrivals", len(tr.Arrivals))
	}
}

// TestNewSpecSource compiles a spec and replays it through a Source:
// arrivals come in order and inside the duration.
func TestNewSpecSource(t *testing.T) {
	s, err := ParseSpec(specText)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	tr, err := Compile(s, CompileOptions{BaselineLatency: 0.02, Duration: 10})
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	src, err := NewSource(tr)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	last := 0.0
	n := 0
	for {
		at, ok := src.Peek()
		if !ok {
			break
		}
		if at < last || at >= 10 {
			t.Fatalf("arrival %g out of order or past duration", at)
		}
		last = at
		if src.Pop() == nil {
			t.Fatal("Pop returned nil with arrivals pending")
		}
		n++
	}
	if n == 0 {
		t.Fatal("no arrivals")
	}
}

// TestCommittedSpecsCanonical requires every scenario spec the experiments
// embed to be in canonical form, so a hand-edit that drifts from the
// grammar fails here rather than at sweep time.
func TestCommittedSpecsCanonical(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "experiments", "testdata", "specs", "*.spec"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed specs (%v)", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ParseSpec(string(data))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if got := s.format(); got != string(data) {
			t.Errorf("%s: not in canonical form; want:\n%s", path, got)
		}
	}
}

// format renders the canonical spec form: meta in fixed order, cohorts in
// file order, options in canonical order with defaults omitted. It is
// FuzzSpecParse's round-trip oracle.
func (s *Spec) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s v%d\n", specMagic, specVersion)
	fmt.Fprintf(&b, "#meta seed %d\n", s.seed)
	fmt.Fprintf(&b, "#meta duration %s\n", num(s.duration))
	if s.Name != "" {
		fmt.Fprintf(&b, "#meta name %s\n", s.Name)
	}
	for _, c := range s.cohorts {
		b.WriteString(c.format())
		b.WriteByte('\n')
	}
	return b.String()
}

func (c *cohort) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cohort %s class=%s", c.name, c.class)
	if c.arrival.kind == "poisson" {
		fmt.Fprintf(&b, " rate=%s", num(c.rate))
	}
	b.WriteString(" arrival=")
	b.WriteString(c.arrival.format())
	fmt.Fprintf(&b, " prompt=%s output=%s", c.prompt.format(), c.output.format())
	if c.tenants > 0 {
		fmt.Fprintf(&b, " tenants=%d", c.tenants)
	}
	if c.sessions > 0 {
		fmt.Fprintf(&b, " sessions=%d", c.sessions)
	}
	if c.diurnal.amp > 0 {
		fmt.Fprintf(&b, " diurnal=%s:%s", num(c.diurnal.amp), num(c.diurnal.period))
	}
	if c.weekly.amp > 0 {
		fmt.Fprintf(&b, " weekly=%s:%s", num(c.weekly.amp), num(c.weekly.period))
	}
	if c.tpot >= 0 {
		fmt.Fprintf(&b, " tpot=%s", num(c.tpot))
	}
	if c.ttft >= 0 {
		fmt.Fprintf(&b, " ttft=%s", num(c.ttft))
	}
	return b.String()
}

func (a *arrivalSpec) format() string {
	switch a.kind {
	case "poisson":
		if a.profile == "constant" {
			return "poisson"
		}
		return "poisson:" + a.profile
	case "bursts":
		return fmt.Sprintf("bursts:%s,%s,%s", num(a.interval), num(a.size), num(a.width))
	}
	return a.kind
}

func (l *lengthSpec) format() string {
	switch l.kind {
	case "lognormal":
		return fmt.Sprintf("lognormal:%s,%s,%d,%d", num(l.median), num(l.sigma), l.min, l.max)
	case "pareto":
		return fmt.Sprintf("pareto:%d,%s,%d", l.min, num(l.alpha), l.max)
	case "uniform":
		return fmt.Sprintf("uniform:%d,%d", l.min, l.max)
	case "fixed":
		return fmt.Sprintf("fixed:%d", l.min)
	}
	return l.kind
}
