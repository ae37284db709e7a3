// Package trace is the simulator's versioned workload data plane: a
// self-describing arrival-trace format (format v1) with a strict
// line-numbered parser and a canonical writer, a serve.Source adapter that
// replays any trace file through the event-driven driver, an exporter that
// records a live run's admitted arrivals back into a valid trace file
// (simulate → export → replay reproduces the original admission stream),
// and declarative workload specs — client cohorts with per-cohort arrival
// processes, length distributions and SLO classes — compiled
// deterministically (seed-bound) into traces.
//
// Format v1 is a header of '#'-directives followed by a fixed six-column
// CSV body:
//
//	#adaserve-trace v1
//	#meta time-unit s
//	#meta seed 42
//	#meta source spec:bursty
//	#class 0 coding tpot=0.02 ttft=1
//	#class 1 chat tpot=0.05 ttft=1
//	arrival,class,prompt,output,tenant,session
//	0.5,1,60,80,,
//	1.25,0,160,90,3,12
//
// The header names the format version, the time unit (always seconds), the
// seed and provenance the body was derived from, and the SLO-class map
// (class ID, class name, TPOT SLO and TTFT SLO in seconds; ttft=0 means no
// TTFT deadline). Body rows are one admitted arrival each: arrival time
// (non-decreasing), class ID, prompt and output lengths in tokens, and
// optional tenant/session tags (empty: untagged). Parse errors carry the
// offending line number; Format renders the canonical form, and
// Parse(Format(t)) is the identity while Format(Parse(s)) is a fixed point
// — the round-trip contract the committed fuzz corpus pins.
package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// version is the trace format version this package reads and writes.
const version = 1

// magic is the first token of every trace file.
const magic = "#adaserve-trace"

// csvHeader is the mandatory column header separating header from body.
const csvHeader = "arrival,class,prompt,output,tenant,session"

// ClassDef is one SLO class of the trace's class map.
type ClassDef struct {
	// ID is the class's identifier, referenced by body rows. Files declare
	// classes in strictly increasing ID order.
	ID int
	// Name is the class name; replay maps it onto a request category.
	Name string
	// TPOT is the class's per-token latency SLO in seconds (> 0).
	TPOT float64
	// TTFT is the class's time-to-first-token SLO in seconds (0: none).
	TTFT float64
}

// Header is the self-describing preamble of a trace file.
type Header struct {
	// Version is the format version (currently always 1).
	Version int
	// TimeUnit is the unit arrival times are expressed in (always "s").
	TimeUnit string
	// Seed is the seed the trace was derived from: the spec-compilation or
	// export seed, and the base for replayed requests' content seeds.
	Seed uint64
	// Source records provenance, e.g. "spec:bursty" or "export:adaserve-sim"
	// (empty: unknown).
	Source string
	// Classes is the SLO-class map in ID order.
	Classes []ClassDef
}

// Arrival is one body row: a single admitted request arrival.
type Arrival struct {
	// at is the arrival time in seconds.
	at float64
	// class is the SLO-class ID (must be declared in the header).
	class int
	// prompt and output are the token lengths (> 0).
	prompt, output int
	// tenant and session optionally tag the arrival with a client tenant
	// and conversation session (-1: untagged). Replay treats them as
	// metadata: replayed requests do not reconstruct shared prompt
	// prefixes from them.
	tenant, session int
}

// Trace is a parsed trace file.
type Trace struct {
	Header   Header
	Arrivals []Arrival
}

// num renders a float in the canonical trace form: shortest exact decimal,
// never exponent notation (so Format output always reparses to the same
// value).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// optInt renders a tenant/session tag (-1: empty field).
func optInt(v int) string {
	if v < 0 {
		return ""
	}
	return strconv.Itoa(v)
}

// Format renders the canonical form of the trace: directives in fixed
// order, classes in ID order, floats in shortest exact decimal form, one
// trailing newline. Parse(t.Format()) returns a trace equal to t for any t
// that validates.
func (t *Trace) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s v%d\n", magic, t.Header.Version)
	b.WriteString("#meta time-unit s\n")
	fmt.Fprintf(&b, "#meta seed %d\n", t.Header.Seed)
	if t.Header.Source != "" {
		fmt.Fprintf(&b, "#meta source %s\n", t.Header.Source)
	}
	for _, c := range t.Header.Classes {
		fmt.Fprintf(&b, "#class %d %s tpot=%s ttft=%s\n", c.ID, c.Name, num(c.TPOT), num(c.TTFT))
	}
	b.WriteString(csvHeader)
	b.WriteByte('\n')
	for _, a := range t.Arrivals {
		fmt.Fprintf(&b, "%s,%d,%d,%d,%s,%s\n",
			num(a.at), a.class, a.prompt, a.output, optInt(a.tenant), optInt(a.session))
	}
	return b.String()
}

// String implements fmt.Stringer (the canonical form).
func (t *Trace) String() string { return t.Format() }

// class returns the class map entry for an ID, or false.
func (h *Header) class(id int) (ClassDef, bool) {
	for _, c := range h.Classes {
		if c.ID == id {
			return c, true
		}
	}
	return ClassDef{}, false
}

// validate checks the whole trace against the format invariants Parse
// enforces, so programmatically built traces fail here instead of
// producing files Parse would reject.
func (t *Trace) validate() error {
	h := &t.Header
	if h.Version != version {
		return fmt.Errorf("trace: unsupported format version %d (have v%d)", h.Version, version)
	}
	if h.TimeUnit != "s" {
		return fmt.Errorf("trace: unsupported time unit %q (have s)", h.TimeUnit)
	}
	lastID := -1
	names := map[string]bool{}
	for _, c := range h.Classes {
		if c.ID <= lastID {
			return fmt.Errorf("trace: class IDs must be strictly increasing (class %d after %d)", c.ID, lastID)
		}
		lastID = c.ID
		if err := validClassName(c.Name); err != nil {
			return err
		}
		if names[c.Name] {
			return fmt.Errorf("trace: duplicate class name %q", c.Name)
		}
		names[c.Name] = true
		if !(c.TPOT > 0) || math.IsInf(c.TPOT, 0) {
			return fmt.Errorf("trace: class %d: TPOT SLO %g must be positive and finite", c.ID, c.TPOT)
		}
		if c.TTFT < 0 || math.IsNaN(c.TTFT) || math.IsInf(c.TTFT, 0) {
			return fmt.Errorf("trace: class %d: TTFT SLO %g must be non-negative and finite", c.ID, c.TTFT)
		}
	}
	last := 0.0
	for i, a := range t.Arrivals {
		if math.IsNaN(a.at) || math.IsInf(a.at, 0) || a.at < 0 {
			return fmt.Errorf("trace: arrival %d: bad time %g", i, a.at)
		}
		if a.at < last {
			return fmt.Errorf("trace: arrival %d: time %s before previous %s", i, num(a.at), num(last))
		}
		last = a.at
		if _, ok := h.class(a.class); !ok {
			return fmt.Errorf("trace: arrival %d: undeclared class %d", i, a.class)
		}
		if a.prompt <= 0 {
			return fmt.Errorf("trace: arrival %d: non-positive prompt length %d", i, a.prompt)
		}
		if a.output <= 0 {
			return fmt.Errorf("trace: arrival %d: non-positive output length %d", i, a.output)
		}
		if a.tenant < -1 || a.session < -1 {
			return fmt.Errorf("trace: arrival %d: negative tenant/session tag", i)
		}
	}
	return nil
}

// validClassName rejects names the CSV body or the directive grammar could
// not round-trip.
func validClassName(name string) error {
	if name == "" {
		return fmt.Errorf("trace: empty class name")
	}
	if strings.ContainsAny(name, ", \t\n\r#=") {
		return fmt.Errorf("trace: class name %q contains a reserved character", name)
	}
	return nil
}

// lineErr formats a parse error carrying the 1-based line number.
func lineErr(n int, format string, args ...any) error {
	return fmt.Errorf("trace: line %d: %s", n, fmt.Sprintf(format, args...))
}

// Parse reads a trace file. The parser is strict — every malformed line
// fails with its line number — but tolerates blank lines and '#'-comment
// lines whose first word is not a directive, so hand-annotated traces stay
// loadable (comments are not preserved; Format renders the canonical
// form). The returned trace always passes validate.
func Parse(data string) (*Trace, error) {
	t := &Trace{Header: Header{Version: version, TimeUnit: "s"}}
	sawVersion, sawBody := false, false
	seenMeta := map[string]bool{}
	lastID := -1
	lastAt := 0.0
	for i, line := range strings.Split(data, "\n") {
		n := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !sawVersion {
			rest, ok := strings.CutPrefix(line, magic+" ")
			if !ok {
				return nil, lineErr(n, "not a trace file (want %q first)", magic+" v1")
			}
			vs, ok := strings.CutPrefix(rest, "v")
			if !ok {
				return nil, lineErr(n, "bad version %q (want v<N>)", rest)
			}
			v, err := strconv.Atoi(vs)
			if err != nil {
				return nil, lineErr(n, "bad version %q (want v<N>)", rest)
			}
			if v != version {
				return nil, lineErr(n, "unsupported trace format version %d (this build reads v%d)", v, version)
			}
			sawVersion = true
			continue
		}
		if line[0] == '#' {
			fields := strings.Fields(line[1:])
			var word string
			if len(fields) > 0 {
				word = fields[0]
			}
			switch word {
			case "meta":
				if sawBody {
					return nil, lineErr(n, "#meta after the CSV header")
				}
				if err := t.parseMeta(n, fields[1:], seenMeta); err != nil {
					return nil, err
				}
			case "class":
				if sawBody {
					return nil, lineErr(n, "#class after the CSV header")
				}
				c, err := parseClass(n, fields[1:])
				if err != nil {
					return nil, err
				}
				if c.ID <= lastID {
					return nil, lineErr(n, "class IDs must be strictly increasing (class %d after %d)", c.ID, lastID)
				}
				lastID = c.ID
				t.Header.Classes = append(t.Header.Classes, c)
			case "adaserve-trace":
				return nil, lineErr(n, "duplicate version line")
			default:
				// A comment; skipped and not preserved.
			}
			continue
		}
		if !sawBody {
			if line != csvHeader {
				return nil, lineErr(n, "expected CSV header %q, got %q", csvHeader, line)
			}
			sawBody = true
			continue
		}
		a, err := parseArrival(n, line)
		if err != nil {
			return nil, err
		}
		if a.at < lastAt {
			return nil, lineErr(n, "arrival time %s before previous %s", num(a.at), num(lastAt))
		}
		lastAt = a.at
		t.Arrivals = append(t.Arrivals, a)
	}
	if !sawVersion {
		return nil, fmt.Errorf("trace: empty input (want %q first)", magic+" v1")
	}
	if !sawBody {
		return nil, fmt.Errorf("trace: missing CSV header %q", csvHeader)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// parseMeta handles one "#meta key value" directive.
func (t *Trace) parseMeta(n int, kv []string, seen map[string]bool) error {
	if len(kv) < 2 {
		return lineErr(n, "#meta wants a key and a value")
	}
	key := kv[0]
	if seen[key] {
		return lineErr(n, "duplicate #meta %s", key)
	}
	seen[key] = true
	switch key {
	case "time-unit":
		if len(kv) != 2 || kv[1] != "s" {
			return lineErr(n, "unsupported time unit %q (have s)", strings.Join(kv[1:], " "))
		}
	case "seed":
		if len(kv) != 2 {
			return lineErr(n, "#meta seed wants one integer")
		}
		v, err := strconv.ParseUint(kv[1], 10, 64)
		if err != nil {
			return lineErr(n, "bad seed %q", kv[1])
		}
		t.Header.Seed = v
	case "source":
		if len(kv) != 2 {
			return lineErr(n, "#meta source wants one token")
		}
		t.Header.Source = kv[1]
	default:
		return lineErr(n, "unknown #meta key %q (time-unit, seed, source)", key)
	}
	return nil
}

// parseClass handles one "#class ID name tpot=T ttft=T" directive.
func parseClass(n int, fields []string) (ClassDef, error) {
	if len(fields) != 4 {
		return ClassDef{}, lineErr(n, "#class wants: #class <id> <name> tpot=<sec> ttft=<sec>")
	}
	id, err := strconv.Atoi(fields[0])
	if err != nil || id < 0 {
		return ClassDef{}, lineErr(n, "bad class ID %q", fields[0])
	}
	c := ClassDef{ID: id, Name: fields[1]}
	if err := validClassName(c.Name); err != nil {
		return ClassDef{}, lineErr(n, "%v", err)
	}
	for _, opt := range fields[2:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok {
			return ClassDef{}, lineErr(n, "bad class option %q", opt)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return ClassDef{}, lineErr(n, "bad class %s %q", key, val)
		}
		switch key {
		case "tpot":
			c.TPOT = v
		case "ttft":
			c.TTFT = v
		default:
			return ClassDef{}, lineErr(n, "unknown class option %q (tpot, ttft)", key)
		}
	}
	if c.TPOT <= 0 {
		return ClassDef{}, lineErr(n, "class %d needs a positive tpot SLO", id)
	}
	return c, nil
}

// parseArrival handles one six-column body row.
func parseArrival(n int, line string) (Arrival, error) {
	cols := strings.Split(line, ",")
	if len(cols) != 6 {
		return Arrival{}, lineErr(n, "want 6 columns (%s), got %d", csvHeader, len(cols))
	}
	at, err := strconv.ParseFloat(cols[0], 64)
	if err != nil || math.IsNaN(at) || math.IsInf(at, 0) || at < 0 {
		return Arrival{}, lineErr(n, "bad arrival time %q", cols[0])
	}
	class, err := strconv.Atoi(cols[1])
	if err != nil || class < 0 {
		return Arrival{}, lineErr(n, "bad class ID %q", cols[1])
	}
	prompt, err := strconv.Atoi(cols[2])
	if err != nil || prompt <= 0 {
		return Arrival{}, lineErr(n, "bad prompt length %q", cols[2])
	}
	output, err := strconv.Atoi(cols[3])
	if err != nil || output <= 0 {
		return Arrival{}, lineErr(n, "bad output length %q", cols[3])
	}
	a := Arrival{at: at, class: class, prompt: prompt, output: output, tenant: -1, session: -1}
	if cols[4] != "" {
		if a.tenant, err = strconv.Atoi(cols[4]); err != nil || a.tenant < 0 {
			return Arrival{}, lineErr(n, "bad tenant tag %q", cols[4])
		}
	}
	if cols[5] != "" {
		if a.session, err = strconv.Atoi(cols[5]); err != nil || a.session < 0 {
			return Arrival{}, lineErr(n, "bad session tag %q", cols[5])
		}
	}
	return a, nil
}

// Duration returns the last arrival time (0 for an empty trace).
func (t *Trace) Duration() float64 {
	if len(t.Arrivals) == 0 {
		return 0
	}
	return t.Arrivals[len(t.Arrivals)-1].at
}

// Stats summarizes a trace for inspection: per-class arrival counts in
// class-map order plus aggregate length means.
type Stats struct {
	Arrivals   int
	PerClass   []int // indexed like Header.Classes
	MeanPrompt float64
	MeanOutput float64
	MeanRPS    float64
}

// Stats computes the trace's summary.
func (t *Trace) Stats() Stats {
	st := Stats{Arrivals: len(t.Arrivals), PerClass: make([]int, len(t.Header.Classes))}
	if len(t.Arrivals) == 0 {
		return st
	}
	idx := map[int]int{}
	for i, c := range t.Header.Classes {
		idx[c.ID] = i
	}
	var prompt, output float64
	for _, a := range t.Arrivals {
		if i, ok := idx[a.class]; ok {
			st.PerClass[i]++
		}
		prompt += float64(a.prompt)
		output += float64(a.output)
	}
	st.MeanPrompt = prompt / float64(st.Arrivals)
	st.MeanOutput = output / float64(st.Arrivals)
	if d := t.Duration(); d > 0 {
		st.MeanRPS = float64(st.Arrivals) / d
	}
	return st
}
