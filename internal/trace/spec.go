package trace

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// specVersion is the workload-spec format version this package reads and
// writes.
const specVersion = 1

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
	seed     uint64
	duration float64
	// Name is an optional slug recorded as trace provenance ("spec:<name>").
	Name    string
	cohorts []cohort
}

// cohort is one client population of a spec.
type cohort struct {
	name  string
	class request.Category
	// rate is the mean arrival rate in req/s (poisson kinds only).
	rate    float64
	arrival arrivalSpec
	prompt  lengthSpec
	output  lengthSpec
	// tenants/sessions > 0 tag each arrival with a tenant/session drawn
	// uniformly from a cohort-private ID range (0: untagged).
	tenants  int
	sessions int
	diurnal  modulation
	weekly   modulation
	// TPOT/TTFT override the class's default SLOs (-1: use defaults;
	// TTFT 0 is expressible and waives the TTFT deadline).
	tpot float64
	ttft float64
}

// arrivalSpec is a cohort's arrival process.
type arrivalSpec struct {
	// kind is "poisson" or "bursts".
	kind string
	// profile shapes a poisson cohort's rate over time (a
	// workload.RateProfile name; "constant" is the plain-poisson default).
	profile string
	// interval, size, width parameterize bursts: every interval seconds a
	// burst of ~size arrivals lands, spread over width seconds.
	interval, size, width float64
}

// lengthSpec is a prompt/output token-length distribution.
type lengthSpec struct {
	// kind is "lognormal", "pareto", "uniform" or "fixed".
	kind string
	// median and Sigma parameterize lognormal.
	median, sigma float64
	// alpha is the pareto tail index (smaller: heavier tail).
	alpha float64
	// min and Max clip every sample (fixed: Min == Max).
	min, max int
}

// modulation is a sinusoidal rate multiplier 1−amp·cos(2πt/period).
type modulation struct {
	amp, period float64
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

// ParseSpec reads a workload spec. Like the trace parser it is strict with
// line-numbered errors, tolerates blank and comment lines, and the result
// round-trips through the canonical form FuzzSpecParse renders.
func ParseSpec(data string) (*Spec, error) {
	s := &Spec{}
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
			if v != specVersion {
				return nil, specErr(n, "unsupported spec format version %d (this build reads v%d)", v, specVersion)
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
		if names[c.name] {
			return nil, specErr(n, "duplicate cohort name %q", c.name)
		}
		names[c.name] = true
		s.cohorts = append(s.cohorts, c)
	}
	if !sawVersion {
		return nil, fmt.Errorf("spec: empty input (want %q first)", specMagic+" v1")
	}
	if !sawDuration {
		return nil, fmt.Errorf("spec: missing #meta duration")
	}
	if len(s.cohorts) == 0 {
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
		s.seed, err = strconv.ParseUint(val, 10, 64)
		if err != nil {
			return false, specErr(n, "bad seed %q", val)
		}
	case "duration":
		s.duration, err = strconv.ParseFloat(val, 64)
		if err != nil || !(s.duration > 0) || math.IsInf(s.duration, 0) {
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

func parseCohort(n int, fields []string) (cohort, error) {
	if len(fields) < 1 {
		return cohort{}, specErr(n, "cohort wants a name")
	}
	c := cohort{name: fields[0], class: -1, tpot: -1, ttft: -1}
	if err := validClassName(c.name); err != nil {
		return cohort{}, specErr(n, "bad cohort name %q", c.name)
	}
	seen := map[string]bool{}
	for _, opt := range fields[1:] {
		key, val, ok := strings.Cut(opt, "=")
		if !ok || val == "" {
			return cohort{}, specErr(n, "bad cohort option %q (want key=value)", opt)
		}
		if seen[key] {
			return cohort{}, specErr(n, "duplicate cohort option %q", key)
		}
		seen[key] = true
		if err := c.setOption(n, key, val); err != nil {
			return cohort{}, err
		}
	}
	return c, c.validate(n)
}

func (c *cohort) setOption(n int, key, val string) error {
	var err error
	switch key {
	case "class":
		for i := 0; i < request.NumCategories; i++ {
			if request.Category(i).String() == val {
				c.class = request.Category(i)
				return nil
			}
		}
		return specErr(n, "unknown class %q", val)
	case "rate":
		c.rate, err = strconv.ParseFloat(val, 64)
		if err != nil || !(c.rate > 0) || math.IsInf(c.rate, 0) {
			return specErr(n, "bad rate %q (want req/s > 0)", val)
		}
	case "arrival":
		c.arrival, err = parseArrivalSpec(n, val)
		return err
	case "prompt":
		c.prompt, err = parseLengthSpec(n, "prompt", val)
		return err
	case "output":
		c.output, err = parseLengthSpec(n, "output", val)
		return err
	case "tenants":
		c.tenants, err = strconv.Atoi(val)
		if err != nil || c.tenants <= 0 {
			return specErr(n, "bad tenants %q (want count > 0)", val)
		}
	case "sessions":
		c.sessions, err = strconv.Atoi(val)
		if err != nil || c.sessions <= 0 {
			return specErr(n, "bad sessions %q (want count > 0)", val)
		}
	case "diurnal":
		c.diurnal, err = parseModulation(n, key, val, diurnalPeriod)
		return err
	case "weekly":
		c.weekly, err = parseModulation(n, key, val, weeklyPeriod)
		return err
	case "tpot":
		c.tpot, err = strconv.ParseFloat(val, 64)
		if err != nil || !(c.tpot > 0) || math.IsInf(c.tpot, 0) {
			return specErr(n, "bad tpot %q (want seconds > 0)", val)
		}
	case "ttft":
		c.ttft, err = strconv.ParseFloat(val, 64)
		if err != nil || c.ttft < 0 || math.IsNaN(c.ttft) || math.IsInf(c.ttft, 0) {
			return specErr(n, "bad ttft %q (want seconds >= 0; 0 waives it)", val)
		}
	default:
		return specErr(n, "unknown cohort option %q", key)
	}
	return nil
}

func parseArrivalSpec(n int, val string) (arrivalSpec, error) {
	kind, args, _ := strings.Cut(val, ":")
	switch kind {
	case "poisson":
		a := arrivalSpec{kind: "poisson", profile: "constant"}
		if args != "" {
			a.profile = args
			ok := false
			for _, p := range workload.RateProfileNames() {
				if p == args {
					ok = true
					break
				}
			}
			if !ok {
				return arrivalSpec{}, specErr(n, "unknown rate profile %q (%s)", args, strings.Join(workload.RateProfileNames(), ", "))
			}
		}
		return a, nil
	case "bursts":
		parts := strings.Split(args, ",")
		if len(parts) != 3 {
			return arrivalSpec{}, specErr(n, "bursts wants bursts:interval,size,width")
		}
		var v [3]float64
		for i, p := range parts {
			f, err := strconv.ParseFloat(p, 64)
			if err != nil || !(f > 0) || math.IsInf(f, 0) {
				return arrivalSpec{}, specErr(n, "bad bursts parameter %q (want > 0)", p)
			}
			v[i] = f
		}
		if v[2] > v[0] {
			return arrivalSpec{}, specErr(n, "burst width %s exceeds interval %s", num(v[2]), num(v[0]))
		}
		return arrivalSpec{kind: "bursts", interval: v[0], size: v[1], width: v[2]}, nil
	}
	return arrivalSpec{}, specErr(n, "unknown arrival process %q (poisson, poisson:<profile>, bursts:interval,size,width)", kind)
}

func parseLengthSpec(n int, which, val string) (lengthSpec, error) {
	kind, args, _ := strings.Cut(val, ":")
	parts := strings.Split(args, ",")
	bad := func(format string, a ...any) (lengthSpec, error) {
		return lengthSpec{}, specErr(n, "%s: %s", which, fmt.Sprintf(format, a...))
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
		l := lengthSpec{kind: "lognormal"}
		var err error
		if l.median, err = pFloat(parts[0]); err != nil || !(l.median > 0) {
			return bad("bad median %q", parts[0])
		}
		if l.sigma, err = pFloat(parts[1]); err != nil || l.sigma < 0 {
			return bad("bad sigma %q", parts[1])
		}
		if l.min, err = pInt(parts[2]); err != nil || l.min <= 0 {
			return bad("bad min %q", parts[2])
		}
		if l.max, err = pInt(parts[3]); err != nil || l.max < l.min {
			return bad("bad max %q (want >= min)", parts[3])
		}
		return l, nil
	case "pareto":
		if len(parts) != 3 {
			return bad("pareto wants pareto:min,alpha,max")
		}
		l := lengthSpec{kind: "pareto"}
		var err error
		if l.min, err = pInt(parts[0]); err != nil || l.min <= 0 {
			return bad("bad min %q", parts[0])
		}
		if l.alpha, err = pFloat(parts[1]); err != nil || !(l.alpha > 0) {
			return bad("bad alpha %q (want > 0)", parts[1])
		}
		if l.max, err = pInt(parts[2]); err != nil || l.max < l.min {
			return bad("bad max %q (want >= min)", parts[2])
		}
		return l, nil
	case "uniform":
		if len(parts) != 2 {
			return bad("uniform wants uniform:min,max")
		}
		l := lengthSpec{kind: "uniform"}
		var err error
		if l.min, err = pInt(parts[0]); err != nil || l.min <= 0 {
			return bad("bad min %q", parts[0])
		}
		if l.max, err = pInt(parts[1]); err != nil || l.max < l.min {
			return bad("bad max %q (want >= min)", parts[1])
		}
		return l, nil
	case "fixed":
		v, err := pInt(args)
		if err != nil || v <= 0 {
			return bad("fixed wants fixed:<tokens > 0>")
		}
		return lengthSpec{kind: "fixed", min: v, max: v}, nil
	}
	return bad("unknown distribution %q (lognormal, pareto, uniform, fixed)", kind)
}

func parseModulation(n int, key, val string, defPeriod float64) (modulation, error) {
	ampS, periodS, hasPeriod := strings.Cut(val, ":")
	m := modulation{period: defPeriod}
	amp, err := strconv.ParseFloat(ampS, 64)
	if err != nil || amp < 0 || amp >= 1 || math.IsNaN(amp) {
		return modulation{}, specErr(n, "bad %s amplitude %q (want 0 <= amp < 1)", key, ampS)
	}
	m.amp = amp
	if hasPeriod {
		p, err := strconv.ParseFloat(periodS, 64)
		if err != nil || !(p > 0) || math.IsInf(p, 0) {
			return modulation{}, specErr(n, "bad %s period %q (want seconds > 0)", key, periodS)
		}
		m.period = p
	}
	if m.amp == 0 {
		// Canonical form omits zero-amplitude modulation entirely.
		return modulation{}, nil
	}
	return m, nil
}

func (c *cohort) validate(n int) error {
	if c.class < 0 {
		return specErr(n, "cohort %s: missing class=", c.name)
	}
	switch c.arrival.kind {
	case "poisson":
		if c.rate <= 0 {
			return specErr(n, "cohort %s: poisson arrival needs rate=", c.name)
		}
	case "bursts":
		if c.rate != 0 {
			return specErr(n, "cohort %s: bursts arrival takes no rate= (size/interval set the rate)", c.name)
		}
	case "":
		return specErr(n, "cohort %s: missing arrival=", c.name)
	}
	if c.prompt.kind == "" {
		return specErr(n, "cohort %s: missing prompt=", c.name)
	}
	if c.output.kind == "" {
		return specErr(n, "cohort %s: missing output=", c.name)
	}
	return nil
}
