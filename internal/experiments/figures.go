package experiments

import (
	"strings"

	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/request"
	"adaserve/internal/workload"
)

// RunOptions controls a whole experiment sweep.
type RunOptions struct {
	// Seed drives trace synthesis and engine randomness.
	Seed uint64
	// Duration is the trace length in seconds. The paper replays a 20-min
	// trace; the default here (180 s) keeps the full suite tractable while
	// preserving the load dynamics.
	Duration float64
	// systems defaults to endToEndSystems.
	systems []SystemKind
	// Parallel is the number of worker goroutines grid points fan out
	// across (each grid point is an independent deterministic simulation
	// with its own engines and RNGs). <= 1 runs sequentially; results are
	// identical and identically ordered either way.
	Parallel int
}

func (o *RunOptions) fill() {
	if o.Duration == 0 {
		o.Duration = 180
	}
	if o.systems == nil {
		o.systems = endToEndSystems()
	}
	if o.Parallel <= 0 {
		o.Parallel = 1
	}
}

// mixedTrace synthesizes the default real-shape trace at meanRPS with the
// given mix and SLO scale.
func mixedTrace(setup ModelSetup, mix workload.Mix, sloScale, meanRPS, duration float64, seed uint64) ([]*request.Request, error) {
	gen, err := NewGenerator(setup, mix, sloScale, mathutil.Hash2(seed, 0x77a1))
	if err != nil {
		return nil, err
	}
	ts := workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(seed, 0x7071)), meanRPS, duration)
	return gen.FromTimestamps(ts), nil
}

// rpsSweepsForSetup returns the paper's RPS sweep for a setup (Figure 8's
// x-axes: 2.6–4.8 for Llama-70B, 2.4–4.2 for Qwen-32B).
func rpsSweepsForSetup(setup ModelSetup) []float64 {
	if strings.Contains(setup.Name, "Qwen") {
		return []float64{2.4, 2.8, 3.2, 3.6, 4.0, 4.2}
	}
	return []float64{2.6, 3.0, 3.4, 3.8, 4.2, 4.6, 4.8}
}

// figureGrid runs a figure sweep: each system on the closed trace
// synthesized for each sweep coordinate x. Every system at one x replays
// the identical trace.
func figureGrid(sweep string, setup ModelSetup, opts RunOptions, systems []SystemKind, xs []float64,
	trace func(x float64) ([]*request.Request, error)) ([]Cell, error) {
	traces := map[float64][]*request.Request{}
	var cells []Cell
	for _, x := range xs {
		reqs, err := trace(x)
		if err != nil {
			return nil, err
		}
		traces[x] = reqs
		for _, kind := range systems {
			cells = append(cells, Cell{System: kind, x: x})
		}
	}
	return runGrid(sweep, opts, cells, func(c Cell) (RunSpec, error) {
		return RunSpec{Kind: c.System, Setup: setup, Seed: opts.Seed, Duration: opts.Duration, Requests: traces[c.x]}, nil
	})
}

// Figure8and9 sweeps request rate and reports SLO attainment (Fig. 8) and
// goodput (Fig. 9) for every system; Figure 12's mean-accepted-tokens series
// comes from the same runs.
func Figure8and9(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	return figureGrid("fig8/9", setup, opts, opts.systems, rpsSweepsForSetup(setup), func(rps float64) ([]*request.Request, error) {
		return mixedTrace(setup, workload.DefaultMix, 1.0, rps, opts.Duration, opts.Seed)
	})
}

// Figure10 fixes RPS at 4.0 and sweeps the urgent-request proportion
// (30–90%), reporting attainment and goodput.
func Figure10(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	return figureGrid("fig10", setup, opts, opts.systems, []float64{0.3, 0.5, 0.7, 0.9}, func(urgent float64) ([]*request.Request, error) {
		return mixedTrace(setup, workload.UrgentMix(urgent), 1.0, 4.0, opts.Duration, opts.Seed)
	})
}

// Figure11 fixes RPS at 4.0 with 60% urgent requests and sweeps the SLO
// scale of the most urgent category from 1.6 down to 0.6.
func Figure11(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	return figureGrid("fig11", setup, opts, opts.systems, []float64{1.6, 1.4, 1.2, 1.0, 0.8, 0.6}, func(scale float64) ([]*request.Request, error) {
		return mixedTrace(setup, workload.UrgentMix(0.6), scale, 4.0, opts.Duration, opts.Seed)
	})
}

// Figure12Systems are the speculation systems whose acceptance Figure 12
// compares.
func Figure12Systems() []SystemKind {
	return []SystemKind{SysAdaServe, SysVLLMSpec4, SysVLLMSpec6, SysVLLMSpec8}
}

// Figure1 reproduces the motivating study: per-token latency of five
// baseline systems on a two-SLO workload (categories 1 and 2 only), with the
// SLO-violation percentage annotated per system and category.
func Figure1(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	return figureGrid("fig1", setup, opts, figure1Systems(), []float64{0}, func(float64) ([]*request.Request, error) {
		return mixedTrace(setup, workload.Mix{0.5, 0.5, 0}, 1.0, 3.0, opts.Duration, opts.Seed)
	})
}

// Figure13and14 replays the synthetic trace whose categories peak at
// different times (Fig. 13) and reports each system's SLO attainment under
// it (Fig. 14).
func Figure13and14(setup ModelSetup, opts RunOptions) ([]Cell, error) {
	opts.fill()
	return figureGrid("fig14", setup, opts, opts.systems, []float64{0}, func(float64) ([]*request.Request, error) {
		gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(opts.Seed, 0x1314))
		if err != nil {
			return nil, err
		}
		perCat := workload.SyntheticCategoryTrace(
			mathutil.NewRNG(mathutil.Hash2(opts.Seed, 0x13)), 4.0, opts.Duration)
		return gen.FromCategoryTimestamps(perCat), nil
	})
}

// Figure15 reports AdaServe's serving-time breakdown (scheduling vs
// speculation vs verification) at a fixed moderate load.
func Figure15(setup ModelSetup, opts RunOptions) (*metrics.Summary, error) {
	opts.fill()
	cells, err := figureGrid("fig15", setup, opts, []SystemKind{SysAdaServe}, []float64{3.4}, func(rps float64) ([]*request.Request, error) {
		return mixedTrace(setup, workload.DefaultMix, 1.0, rps, opts.Duration, opts.Seed)
	})
	if err != nil {
		return nil, err
	}
	return cells[0].Sum.Aggregate, nil
}
