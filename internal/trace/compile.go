package trace

import (
	"fmt"
	"math"
	"os"
	"sort"

	"adaserve/internal/mathutil"
	"adaserve/internal/workload"
)

// compileSalt decorrelates per-cohort RNG streams from other uses of the
// same seed.
const compileSalt = 0x5bec

// CompileOptions configures spec compilation.
type CompileOptions struct {
	// BaselineLatency is the model's per-token decode latency in seconds,
	// needed to resolve factor-style class SLOs (required).
	BaselineLatency float64
	// Duration overrides the spec's duration (0: use the spec's).
	Duration float64
	// Seed overrides the spec's seed (0: use the spec's). The same spec
	// and seed always compile to the same trace.
	Seed uint64
}

// CompileFile reads the spec file at path, parses it and compiles it (see
// Compile). A parse error names the file.
func CompileFile(path string, opts CompileOptions) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := ParseSpec(string(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return Compile(spec, opts)
}

// Compile turns a spec into a trace, deterministically per seed: each
// cohort samples its arrival process and lengths from a private RNG stream
// derived from the seed and the cohort's position, then the streams merge
// in time order. Class SLOs come from the cohort's tpot/ttft overrides or
// the category defaults (Table 2) resolved against BaselineLatency;
// cohorts sharing a class must agree on its SLOs.
func Compile(s *Spec, opts CompileOptions) (*Trace, error) {
	if !(opts.BaselineLatency > 0) {
		return nil, fmt.Errorf("trace: compile: BaselineLatency must be positive")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = s.seed
	}
	duration := opts.Duration
	if duration == 0 {
		duration = s.duration
	}
	if !(duration > 0) || math.IsInf(duration, 1) {
		return nil, fmt.Errorf("trace: compile: duration %g must be positive and finite", duration)
	}

	classes, err := resolveClasses(s, opts.BaselineLatency)
	if err != nil {
		return nil, err
	}

	type tagged struct {
		a      Arrival
		cohort int
	}
	var all []tagged
	tenantBase, sessionBase := 0, 0
	for ci := range s.cohorts {
		c := &s.cohorts[ci]
		rng := mathutil.NewRNG(mathutil.Hash3(seed, compileSalt, uint64(ci)))
		ts, err := cohortArrivals(c, rng, duration)
		if err != nil {
			return nil, fmt.Errorf("trace: compile: cohort %s: %w", c.name, err)
		}
		for _, t := range ts {
			a := Arrival{at: t, class: int(c.class), tenant: -1, session: -1}
			a.prompt = sampleLength(&c.prompt, rng)
			a.output = sampleLength(&c.output, rng)
			// Clip to the context window the synthetic categories fit.
			if a.prompt+a.output > workload.MaxContext {
				a.prompt = workload.MaxContext - a.output
				if a.prompt < 1 {
					a.prompt, a.output = 1, workload.MaxContext-1
				}
			}
			if c.tenants > 0 {
				a.tenant = tenantBase + rng.Intn(c.tenants)
			}
			if c.sessions > 0 {
				a.session = sessionBase + rng.Intn(c.sessions)
			}
			all = append(all, tagged{a: a, cohort: ci})
		}
		tenantBase += c.tenants
		sessionBase += c.sessions
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].a.at != all[j].a.at {
			return all[i].a.at < all[j].a.at
		}
		return all[i].cohort < all[j].cohort
	})

	source := "spec"
	if s.Name != "" {
		source = "spec:" + s.Name
	}
	t := &Trace{Header: Header{
		Version:  version,
		TimeUnit: "s",
		Seed:     seed,
		Source:   source,
		Classes:  classes,
	}}
	t.Arrivals = make([]Arrival, len(all))
	for i, ta := range all {
		t.Arrivals[i] = ta.a
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("trace: compile: %w", err)
	}
	return t, nil
}

// resolveClasses builds the class map from the cohorts' categories,
// applying tpot/ttft overrides over the Table 2 defaults.
func resolveClasses(s *Spec, baseline float64) ([]ClassDef, error) {
	defaults := workload.DefaultCategories()
	byID := map[int]ClassDef{}
	owner := map[int]string{}
	for i := range s.cohorts {
		c := &s.cohorts[i]
		id := int(c.class)
		spec := defaults[id]
		def := ClassDef{
			ID:   id,
			Name: c.class.String(),
			TPOT: spec.TPOT(baseline),
			TTFT: spec.TTFTSLOAbs,
		}
		if c.tpot >= 0 {
			def.TPOT = c.tpot
		}
		if c.ttft >= 0 {
			def.TTFT = c.ttft
		}
		if prev, ok := byID[id]; ok {
			if prev != def {
				return nil, fmt.Errorf("trace: compile: cohorts %s and %s disagree on class %s SLOs",
					owner[id], c.name, def.Name)
			}
			continue
		}
		byID[id] = def
		owner[id] = c.name
	}
	ids := make([]int, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	classes := make([]ClassDef, len(ids))
	for i, id := range ids {
		classes[i] = byID[id]
	}
	return classes, nil
}

// cohortArrivals samples one cohort's arrival timestamps on [0, duration).
func cohortArrivals(c *cohort, rng *mathutil.RNG, duration float64) ([]float64, error) {
	mod := modulationFn(c)
	switch c.arrival.kind {
	case "poisson":
		base, baseMax, err := workload.RateProfile(c.arrival.profile, c.rate, duration)
		if err != nil {
			return nil, err
		}
		rate := func(t float64) float64 { return base(t) * mod(t) }
		maxRate := baseMax * (1 + c.diurnal.amp) * (1 + c.weekly.amp)
		return workload.NonHomogeneousPoisson(rng, rate, maxRate, duration), nil
	case "bursts":
		interval, size, width := c.arrival.interval, c.arrival.size, c.arrival.width
		var out []float64
		for k := 0; ; k++ {
			center := (float64(k) + 0.5) * interval
			if center >= duration {
				break
			}
			// One burst: ~size·mod(center) correlated arrivals spread
			// Poisson-uniformly over width seconds around the center.
			burst := workload.PoissonTrace(rng, size*mod(center)/width, width)
			for _, b := range burst {
				t := center - width/2 + b
				if t >= 0 && t < duration {
					out = append(out, t)
				}
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown arrival kind %q", c.arrival.kind)
}

// modulationFn composes the cohort's diurnal and weekly multipliers.
func modulationFn(c *cohort) func(t float64) float64 {
	d, w := c.diurnal, c.weekly
	if d.amp == 0 && w.amp == 0 {
		return func(float64) float64 { return 1 }
	}
	return func(t float64) float64 {
		v := 1.0
		if d.amp > 0 {
			v *= 1 - d.amp*math.Cos(2*math.Pi*t/d.period)
		}
		if w.amp > 0 {
			v *= 1 - w.amp*math.Cos(2*math.Pi*t/w.period)
		}
		return v
	}
}

// sampleLength draws one token length from a cohort length distribution.
func sampleLength(l *lengthSpec, rng *mathutil.RNG) int {
	switch l.kind {
	case "lognormal":
		return workload.LengthDist{Median: l.median, Sigma: l.sigma, Min: l.min, Max: l.max}.Sample(rng)
	case "pareto":
		// Inverse-CDF Pareto: X = min / U^(1/alpha) with U in (0,1].
		u := 1 - rng.Float64()
		v := float64(l.min) / math.Pow(u, 1/l.alpha)
		if v > float64(l.max) {
			return l.max
		}
		return mathutil.ClipInt(int(v+0.5), l.min, l.max)
	case "uniform":
		return l.min + rng.Intn(l.max-l.min+1)
	case "fixed":
		return l.min
	}
	panic(fmt.Sprintf("trace: unknown length distribution %q", l.kind))
}
