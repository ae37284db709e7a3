package trace

import (
	"fmt"
	"math"
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
		seed = s.Seed
	}
	duration := opts.Duration
	if duration == 0 {
		duration = s.Duration
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
	for ci := range s.Cohorts {
		c := &s.Cohorts[ci]
		rng := mathutil.NewRNG(mathutil.Hash3(seed, compileSalt, uint64(ci)))
		ts, err := cohortArrivals(c, rng, duration)
		if err != nil {
			return nil, fmt.Errorf("trace: compile: cohort %s: %w", c.Name, err)
		}
		for _, t := range ts {
			a := Arrival{At: t, Class: int(c.Class), Tenant: -1, Session: -1}
			a.Prompt = sampleLength(&c.Prompt, rng)
			a.Output = sampleLength(&c.Output, rng)
			// Clip to the context window the synthetic categories fit.
			if a.Prompt+a.Output > workload.MaxContext {
				a.Prompt = workload.MaxContext - a.Output
				if a.Prompt < 1 {
					a.Prompt, a.Output = 1, workload.MaxContext-1
				}
			}
			if c.Tenants > 0 {
				a.Tenant = tenantBase + rng.Intn(c.Tenants)
			}
			if c.Sessions > 0 {
				a.Session = sessionBase + rng.Intn(c.Sessions)
			}
			all = append(all, tagged{a: a, cohort: ci})
		}
		tenantBase += c.Tenants
		sessionBase += c.Sessions
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].a.At != all[j].a.At {
			return all[i].a.At < all[j].a.At
		}
		return all[i].cohort < all[j].cohort
	})

	source := "spec"
	if s.Name != "" {
		source = "spec:" + s.Name
	}
	t := &Trace{Header: Header{
		Version:  Version,
		TimeUnit: "s",
		Seed:     seed,
		Source:   source,
		Classes:  classes,
	}}
	t.Arrivals = make([]Arrival, len(all))
	for i, ta := range all {
		t.Arrivals[i] = ta.a
	}
	if err := t.Validate(); err != nil {
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
	for i := range s.Cohorts {
		c := &s.Cohorts[i]
		id := int(c.Class)
		spec := defaults[id]
		def := ClassDef{
			ID:   id,
			Name: c.Class.String(),
			TPOT: spec.TPOT(baseline),
			TTFT: spec.TTFTSLOAbs,
		}
		if c.TPOT >= 0 {
			def.TPOT = c.TPOT
		}
		if c.TTFT >= 0 {
			def.TTFT = c.TTFT
		}
		if prev, ok := byID[id]; ok {
			if prev != def {
				return nil, fmt.Errorf("trace: compile: cohorts %s and %s disagree on class %s SLOs",
					owner[id], c.Name, def.Name)
			}
			continue
		}
		byID[id] = def
		owner[id] = c.Name
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
func cohortArrivals(c *Cohort, rng *mathutil.RNG, duration float64) ([]float64, error) {
	mod := modulationFn(c)
	switch c.Arrival.Kind {
	case "poisson":
		base, baseMax, err := workload.RateProfile(c.Arrival.Profile, c.Rate, duration)
		if err != nil {
			return nil, err
		}
		rate := func(t float64) float64 { return base(t) * mod(t) }
		maxRate := baseMax * (1 + c.Diurnal.Amp) * (1 + c.Weekly.Amp)
		return workload.NonHomogeneousPoisson(rng, rate, maxRate, duration), nil
	case "bursts":
		interval, size, width := c.Arrival.Interval, c.Arrival.Size, c.Arrival.Width
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
	return nil, fmt.Errorf("unknown arrival kind %q", c.Arrival.Kind)
}

// modulationFn composes the cohort's diurnal and weekly multipliers.
func modulationFn(c *Cohort) func(t float64) float64 {
	d, w := c.Diurnal, c.Weekly
	if d.Amp == 0 && w.Amp == 0 {
		return func(float64) float64 { return 1 }
	}
	return func(t float64) float64 {
		v := 1.0
		if d.Amp > 0 {
			v *= 1 - d.Amp*math.Cos(2*math.Pi*t/d.Period)
		}
		if w.Amp > 0 {
			v *= 1 - w.Amp*math.Cos(2*math.Pi*t/w.Period)
		}
		return v
	}
}

// sampleLength draws one token length from a cohort length distribution.
func sampleLength(l *LengthSpec, rng *mathutil.RNG) int {
	switch l.Kind {
	case "lognormal":
		return workload.LengthDist{Median: l.Median, Sigma: l.Sigma, Min: l.Min, Max: l.Max}.Sample(rng)
	case "pareto":
		// Inverse-CDF Pareto: X = min / U^(1/alpha) with U in (0,1].
		u := 1 - rng.Float64()
		v := float64(l.Min) / math.Pow(u, 1/l.Alpha)
		if v > float64(l.Max) {
			return l.Max
		}
		return mathutil.ClipInt(int(v+0.5), l.Min, l.Max)
	case "uniform":
		return l.Min + rng.Intn(l.Max-l.Min+1)
	case "fixed":
		return l.Min
	}
	panic(fmt.Sprintf("trace: unknown length distribution %q", l.Kind))
}
