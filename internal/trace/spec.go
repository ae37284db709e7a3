package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// SpecVersion is the workload-spec format version this package reads and
// writes.
const SpecVersion = 1

// specMagic is the first token of every spec file.
const specMagic = "#adaserve-spec"

// A Spec is a declarative workload: a set of client cohorts, each with its
// own arrival process, length distributions, SLO class and tagging, that
// Compile turns deterministically into a trace. Format v1:
//
//	#adaserve-spec v1
//	#meta seed 42
//	#meta duration 120
//	#meta name bursty
//	cohort ide class=coding rate=2 arrival=poisson prompt=lognormal:160,0.45,32,1024 output=lognormal:90,0.5,16,512
//	cohort chat class=chat arrival=bursts:6,30,1 prompt=fixed:60 output=uniform:16,256 tenants=4 sessions=16
//
// Cohort options in canonical order: class, rate, arrival, prompt, output,
// tenants, sessions, diurnal, weekly, tpot, ttft. Arrival processes:
// "poisson" (constant rate), "poisson:<profile>" (rate-profile-modulated:
// ramp, spike, diurnal), "bursts:interval,size,width" (a burst of ~size
// Poisson arrivals every interval seconds, spread over width seconds).
// Length distributions: "lognormal:median,sigma,min,max",
// "pareto:min,alpha,max" (heavy tail), "uniform:min,max", "fixed:n".
// "diurnal=amp:period" / "weekly=amp:period" multiply the cohort's rate by
// 1−amp·cos(2πt/period) (defaults: 86400s and 604800s periods). tpot/ttft
// override the class's default SLOs in seconds.
type Spec struct {
	Version  int
	Seed     uint64
	Duration float64
	// Name is an optional slug recorded as trace provenance ("spec:<name>").
	Name    string
	Cohorts []Cohort
}

// Cohort is one client population of a spec.
type Cohort struct {
	Name  string
	Class request.Category
	// Rate is the mean arrival rate in req/s (poisson kinds only).
	Rate    float64
	Arrival ArrivalSpec
	Prompt  LengthSpec
	Output  LengthSpec
	// Tenants/Sessions > 0 tag each arrival with a tenant/session drawn
	// uniformly from a cohort-private ID range (0: untagged).
	Tenants  int
	Sessions int
	Diurnal  Modulation
	Weekly   Modulation
	// TPOT/TTFT override the class's default SLOs (-1: use defaults;
	// TTFT 0 is expressible and waives the TTFT deadline).
	TPOT float64
	TTFT float64
}

// ArrivalSpec is a cohort's arrival process.
type ArrivalSpec struct {
	// Kind is "poisson" or "bursts".
	Kind string
	// Profile shapes a poisson cohort's rate over time (a
	// workload.RateProfile name; "constant" is the plain-poisson default).
	Profile string
	// Interval, Size, Width parameterize bursts: every Interval seconds a
	// burst of ~Size arrivals lands, spread over Width seconds.
	Interval, Size, Width float64
}

// LengthSpec is a prompt/output token-length distribution.
type LengthSpec struct {
	// Kind is "lognormal", "pareto", "uniform" or "fixed".
	Kind string
	// Median and Sigma parameterize lognormal.
	Median, Sigma float64
	// Alpha is the pareto tail index (smaller: heavier tail).
	Alpha float64
	// Min and Max clip every sample (fixed: Min == Max).
	Min, Max int
}

// Modulation is a sinusoidal rate multiplier 1−Amp·cos(2πt/Period).
type Modulation struct {
	Amp, Period float64
}

// Default modulation periods (seconds).
const (
	diurnalPeriod = 86400
	weeklyPeriod  = 604800
)

// specErr formats a spec parse error carrying the 1-based line number.
func specErr(n int, format string, args ...any) error {
	return fmt.Errorf("spec: line %d: %s", n, fmt.Sprintf(format, args...))
}

// Format renders the canonical spec form: meta in fixed order, cohorts in
// file order, options in canonical order with defaults omitted. Kept, with
// its format helpers, as FuzzSpecParse's round-trip oracle.
func (s *Spec) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s v%d\n", specMagic, s.Version)
	fmt.Fprintf(&b, "#meta seed %d\n", s.Seed)
	fmt.Fprintf(&b, "#meta duration %s\n", num(s.Duration))
	if s.Name != "" {
		fmt.Fprintf(&b, "#meta name %s\n", s.Name)
	}
	for _, c := range s.Cohorts {
		b.WriteString(c.format())
		b.WriteByte('\n')
	}
	return b.String()
}

func (c *Cohort) format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cohort %s class=%s", c.Name, c.Class)
	if c.Arrival.Kind == "poisson" {
		fmt.Fprintf(&b, " rate=%s", num(c.Rate))
	}
	b.WriteString(" arrival=")
	b.WriteString(c.Arrival.format())
	fmt.Fprintf(&b, " prompt=%s output=%s", c.Prompt.format(), c.Output.format())
	if c.Tenants > 0 {
		fmt.Fprintf(&b, " tenants=%d", c.Tenants)
	}
	if c.Sessions > 0 {
		fmt.Fprintf(&b, " sessions=%d", c.Sessions)
	}
	if c.Diurnal.Amp > 0 {
		fmt.Fprintf(&b, " diurnal=%s:%s", num(c.Diurnal.Amp), num(c.Diurnal.Period))
	}
	if c.Weekly.Amp > 0 {
		fmt.Fprintf(&b, " weekly=%s:%s", num(c.Weekly.Amp), num(c.Weekly.Period))
	}
	if c.TPOT >= 0 {
		fmt.Fprintf(&b, " tpot=%s", num(c.TPOT))
	}
	if c.TTFT >= 0 {
		fmt.Fprintf(&b, " ttft=%s", num(c.TTFT))
	}
	return b.String()
}

func (a *ArrivalSpec) format() string {
	switch a.Kind {
	case "poisson":
		if a.Profile == "constant" {
			return "poisson"
		}
		return "poisson:" + a.Profile
	case "bursts":
		return fmt.Sprintf("bursts:%s,%s,%s", num(a.Interval), num(a.Size), num(a.Width))
	}
	return a.Kind
}

func (l *LengthSpec) format() string {
	switch l.Kind {
	case "lognormal":
		return fmt.Sprintf("lognormal:%s,%s,%d,%d", num(l.Median), num(l.Sigma), l.Min, l.Max)
	case "pareto":
		return fmt.Sprintf("pareto:%d,%s,%d", l.Min, num(l.Alpha), l.Max)
	case "uniform":
		return fmt.Sprintf("uniform:%d,%d", l.Min, l.Max)
	case "fixed":
		return fmt.Sprintf("fixed:%d", l.Min)
	}
	return l.Kind
}

// ParseSpec reads a workload spec. Like the trace parser it is strict with
// line-numbered errors, tolerates blank and comment lines, and the result
// round-trips: ParseSpec(s.Format()) equals s.
func ParseSpec(data string) (*Spec, error) {
	s := &Spec{Version: SpecVersion}
	sawVersion, sawDuration := false, false
	seenMeta := map[string]bool{}
	names := map[string]bool{}
	for i, line := range strings.Split(data, "\n") {
		n := i + 1
		if strings.TrimSpace(line) == "" {
			continue
		}
		if !sawVersion {
			rest, ok := strings.CutPrefix(line, specMagic+" ")
			if !ok {
				return nil, specErr(n, "not a workload spec (want %q first)", specMagic+" v1")
			}
			vs, _ := strings.CutPrefix(rest, "v")
			v, err := strconv.Atoi(vs)
			if err != nil {
				return nil, specErr(n, "bad version %q (want v<N>)", rest)
			}
			if v != SpecVersion {
				return nil, specErr(n, "unsupported spec format version %d (this build reads v%d)", v, SpecVersion)
			}
			sawVersion = true
			continue
		}
		if line[0] == '#' {
			fields := strings.Fields(line[1:])
			if len(fields) > 0 && fields[0] == "meta" {
				sawD, err := s.parseMeta(n, fields[1:], seenMeta)
				if err != nil {
					return nil, err
				}
				sawDuration = sawDuration || sawD
			}
			continue
		}
		fields := strings.Fields(line)
		if fields[0] != "cohort" {
			return nil, specErr(n, "expected a cohort line, got %q", fields[0])
		}
		c, err := parseCohort(n, fields[1:])
		if err != nil {
			return nil, err
		}
		if names[c.Name] {
			return nil, specErr(n, "duplicate cohort name %q", c.Name)
		}
		names[c.Name] = true
		s.Cohorts = append(s.Cohorts, c)
	}
	if !sawVersion {
		return nil, fmt.Errorf("spec: empty input (want %q first)", specMagic+" v1")
	}
	if !sawDuration {
		return nil, fmt.Errorf("spec: missing #meta duration")
	}
	if len(s.Cohorts) == 0 {
		return nil, fmt.Errorf("spec: no cohorts")
	}
	return s, nil
}

func (s *Spec) parseMeta(n int, kv []string, seen map[string]bool) (sawDuration bool, err error) {
	if len(kv) != 2 {
		return false, specErr(n, "#meta wants a key and one value")
	}
	key, val := kv[0], kv[1]
	if seen[key] {
		return false, specErr(n, "duplicate #meta %s", key)
	}
	seen[key] = true
	switch key {
	case "seed":
		s.Seed, err = strconv.ParseUint(val, 10, 64)
		if err != nil {
			return false, specErr(n, "bad seed %q", val)
		}
	case "duration":
		s.Duration, err = strconv.ParseFloat(val, 64)
		if err != nil || !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
			return false, specErr(n, "bad duration %q (want seconds > 0)", val)
		}
		return true, nil
	case "name":
		if err := validClassName(val); err != nil {
			return false, specErr(n, "bad name %q", val)
		}
		s.Name = val
	default:
		return false, specErr(n, "unknown #meta key %q (seed, duration, name)", key)
	}
	return false, nil
}

func parseCohort(n int, fields []string) (Cohort, error) {
	if len(fields) < 1 {
		return Cohort{}, specErr(n, "cohort wants a name")
	}
	c := Cohort{Name: fields[0], Class: -1, TPOT: -1, TTFT: -1}
	if err := validClassName(c.Name); err != nil {
		return Cohort{}, specErr(n, "bad cohort name %q", c.Name)
	}
	seen := map[string]bool{}
	for _, opt := range fields[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok || val == "" {
			return Cohort{}, specErr(n, "bad cohort option %q (want key=value)", opt)
		}
		if seen[key] {
			return Cohort{}, specErr(n, "duplicate cohort option %q", key)
		}
		seen[key] = true
		if err := c.setOption(n, key, val); err != nil {
			return Cohort{}, err
		}
	}
	return c, c.validate(n)
}

func (c *Cohort) setOption(n int, key, val string) error {
	var err error
	switch key {
	case "class":
		for i := 0; i < request.NumCategories; i++ {
			if request.Category(i).String() == val {
				c.Class = request.Category(i)
				return nil
			}
		}
		return specErr(n, "unknown class %q", val)
	case "rate":
		c.Rate, err = strconv.ParseFloat(val, 64)
		if err != nil || !(c.Rate > 0) || math.IsInf(c.Rate, 0) {
			return specErr(n, "bad rate %q (want req/s > 0)", val)
		}
	case "arrival":
		c.Arrival, err = parseArrivalSpec(n, val)
		return err
	case "prompt":
		c.Prompt, err = parseLengthSpec(n, "prompt", val)
		return err
	case "output":
		c.Output, err = parseLengthSpec(n, "output", val)
		return err
	case "tenants":
		c.Tenants, err = strconv.Atoi(val)
		if err != nil || c.Tenants <= 0 {
			return specErr(n, "bad tenants %q (want count > 0)", val)
		}
	case "sessions":
		c.Sessions, err = strconv.Atoi(val)
		if err != nil || c.Sessions <= 0 {
			return specErr(n, "bad sessions %q (want count > 0)", val)
		}
	case "diurnal":
		c.Diurnal, err = parseModulation(n, key, val, diurnalPeriod)
		return err
	case "weekly":
		c.Weekly, err = parseModulation(n, key, val, weeklyPeriod)
		return err
	case "tpot":
		c.TPOT, err = strconv.ParseFloat(val, 64)
		if err != nil || !(c.TPOT > 0) || math.IsInf(c.TPOT, 0) {
			return specErr(n, "bad tpot %q (want seconds > 0)", val)
		}
	case "ttft":
		c.TTFT, err = strconv.ParseFloat(val, 64)
		if err != nil || c.TTFT < 0 || math.IsNaN(c.TTFT) || math.IsInf(c.TTFT, 0) {
			return specErr(n, "bad ttft %q (want seconds >= 0; 0 waives it)", val)
		}
	default:
		return specErr(n, "unknown cohort option %q", key)
	}
	return nil
}

func parseArrivalSpec(n int, val string) (ArrivalSpec, error) {
	kind, args, _ := strings.Cut(val, ":")
	switch kind {
	case "poisson":
		a := ArrivalSpec{Kind: "poisson", Profile: "constant"}
		if args != "" {
			a.Profile = args
			ok := false
			for _, p := range workload.RateProfileNames() {
				if p == args {
					ok = true
					break
				}
			}
			if !ok {
				return ArrivalSpec{}, specErr(n, "unknown rate profile %q (%s)", args, strings.Join(workload.RateProfileNames(), ", "))
			}
		}
		return a, nil
	case "bursts":
		parts := strings.Split(args, ",")
		if len(parts) != 3 {
			return ArrivalSpec{}, specErr(n, "bursts wants bursts:interval,size,width")
		}
		var v [3]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return ArrivalSpec{}, specErr(n, "bad bursts parameter %q (want > 0)", p)
			}
			v[i] = f
		}
		if v[2] > v[0] {
			return ArrivalSpec{}, specErr(n, "burst width %s exceeds interval %s", num(v[2]), num(v[0]))
		}
		return ArrivalSpec{Kind: "bursts", Interval: v[0], Size: v[1], Width: v[2]}, nil
	}
	return ArrivalSpec{}, specErr(n, "unknown arrival process %q (poisson, poisson:<profile>, bursts:interval,size,width)", kind)
}

func parseLengthSpec(n int, which, val string) (LengthSpec, error) {
	kind, args, _ := strings.Cut(val, ":")
	parts := strings.Split(args, ",")
	bad := func(format string, a ...any) (LengthSpec, error) {
		return LengthSpec{}, specErr(n, "%s: %s", which, fmt.Sprintf(format, a...))
	}
	pFloat := func(s string) (float64, error) {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return 0, fmt.Errorf("bad number %q", s)
		}
		return f, nil
	}
	pInt := func(s string) (int, error) { return strconv.Atoi(s) }
	switch kind {
	case "lognormal":
		if len(parts) != 4 {
			return bad("lognormal wants lognormal:median,sigma,min,max")
		}
		l := LengthSpec{Kind: "lognormal"}
		var err error
		if l.Median, err = pFloat(parts[0]); err != nil || !(l.Median > 0) {
			return bad("bad median %q", parts[0])
		}
		if l.Sigma, err = pFloat(parts[1]); err != nil || l.Sigma < 0 {
			return bad("bad sigma %q", parts[1])
		}
		if l.Min, err = pInt(parts[2]); err != nil || l.Min <= 0 {
			return bad("bad min %q", parts[2])
		}
		if l.Max, err = pInt(parts[3]); err != nil || l.Max < l.Min {
			return bad("bad max %q (want >= min)", parts[3])
		}
		return l, nil
	case "pareto":
		if len(parts) != 3 {
			return bad("pareto wants pareto:min,alpha,max")
		}
		l := LengthSpec{Kind: "pareto"}
		var err error
		if l.Min, err = pInt(parts[0]); err != nil || l.Min <= 0 {
			return bad("bad min %q", parts[0])
		}
		if l.Alpha, err = pFloat(parts[1]); err != nil || !(l.Alpha > 0) {
			return bad("bad alpha %q (want > 0)", parts[1])
		}
		if l.Max, err = pInt(parts[2]); err != nil || l.Max < l.Min {
			return bad("bad max %q (want >= min)", parts[2])
		}
		return l, nil
	case "uniform":
		if len(parts) != 2 {
			return bad("uniform wants uniform:min,max")
		}
		l := LengthSpec{Kind: "uniform"}
		var err error
		if l.Min, err = pInt(parts[0]); err != nil || l.Min <= 0 {
			return bad("bad min %q", parts[0])
		}
		if l.Max, err = pInt(parts[1]); err != nil || l.Max < l.Min {
			return bad("bad max %q (want >= min)", parts[1])
		}
		return l, nil
	case "fixed":
		v, err := pInt(args)
		if err != nil || v <= 0 {
			return bad("fixed wants fixed:<tokens > 0>")
		}
		return LengthSpec{Kind: "fixed", Min: v, Max: v}, nil
	}
	return bad("unknown distribution %q (lognormal, pareto, uniform, fixed)", kind)
}

func parseModulation(n int, key, val string, defPeriod float64) (Modulation, error) {
	ampS, periodS, hasPeriod := strings.Cut(val, ":")
	m := Modulation{Period: defPeriod}
	amp, err := strconv.ParseFloat(ampS, 64)
	if err != nil || amp < 0 || amp >= 1 || math.IsNaN(amp) {
		return Modulation{}, specErr(n, "bad %s amplitude %q (want 0 <= amp < 1)", key, ampS)
	}
	m.Amp = amp
	if hasPeriod {
		p, err := strconv.ParseFloat(periodS, 64)
		if err != nil || !(p > 0) || math.IsInf(p, 0) {
			return Modulation{}, specErr(n, "bad %s period %q (want seconds > 0)", key, periodS)
		}
		m.Period = p
	}
	if m.Amp == 0 {
		// Canonical form omits zero-amplitude modulation entirely.
		return Modulation{}, nil
	}
	return m, nil
}

func (c *Cohort) validate(n int) error {
	if c.Class < 0 {
		return specErr(n, "cohort %s: missing class=", c.Name)
	}
	switch c.Arrival.Kind {
	case "poisson":
		if c.Rate <= 0 {
			return specErr(n, "cohort %s: poisson arrival needs rate=", c.Name)
		}
	case "bursts":
		if c.Rate != 0 {
			return specErr(n, "cohort %s: bursts arrival takes no rate= (size/interval set the rate)", c.Name)
		}
	case "":
		return specErr(n, "cohort %s: missing arrival=", c.Name)
	}
	if c.Prompt.Kind == "" {
		return specErr(n, "cohort %s: missing prompt=", c.Name)
	}
	if c.Output.Kind == "" {
		return specErr(n, "cohort %s: missing output=", c.Name)
	}
	return nil
}
