package workload

import (
	"math"
	"testing"

	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// newGenerator builds a request generator, failing the test on a bad config.
func newGenerator(t *testing.T, cfg GeneratorConfig) *Generator {
	t.Helper()
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestLengthDistClipping(t *testing.T) {
	d := LengthDist{Median: 100, Sigma: 2.0, Min: 50, Max: 150}
	rng := mathutil.NewRNG(1)
	for i := 0; i < 1000; i++ {
		n := d.Sample(rng)
		if n < 50 || n > 150 {
			t.Fatalf("sample %d outside clip range", n)
		}
	}
}

func TestLengthDistMedian(t *testing.T) {
	d := LengthDist{Median: 200, Sigma: 0.5, Min: 1, Max: 10000}
	rng := mathutil.NewRNG(2)
	var samples []float64
	for i := 0; i < 20000; i++ {
		samples = append(samples, float64(d.Sample(rng)))
	}
	med := mathutil.Percentile(samples, 50)
	if med < 180 || med > 220 {
		t.Fatalf("sample median %g, want ~200", med)
	}
}

func TestDefaultCategoriesComplete(t *testing.T) {
	cats := DefaultCategories()
	if len(cats) != request.NumCategories {
		t.Fatalf("%d categories", len(cats))
	}
	seen := map[request.Category]bool{}
	for _, c := range cats {
		seen[c.category] = true
		if c.sloFactor <= 0 && c.sloAbs <= 0 {
			t.Errorf("%s has no SLO", c.category)
		}
	}
	if len(seen) != request.NumCategories {
		t.Fatal("duplicate category specs")
	}
}

func TestCategoryTPOTResolution(t *testing.T) {
	cats := DefaultCategories()
	base := 0.033
	// Coding: 1.2x baseline; chat 50ms; summarization 150ms (Table 2).
	if got := cats[0].TPOT(base); math.Abs(got-1.2*base) > 1e-12 {
		t.Errorf("coding SLO %g", got)
	}
	if got := cats[1].TPOT(base); got != 0.050 {
		t.Errorf("chat SLO %g", got)
	}
	if got := cats[2].TPOT(base); got != 0.150 {
		t.Errorf("summarization SLO %g", got)
	}
}

func TestMixValidate(t *testing.T) {
	if DefaultMix.validate() != nil {
		t.Error("default mix invalid")
	}
	if (Mix{0.5, 0.2, 0.2}).validate() == nil {
		t.Error("non-normalized mix accepted")
	}
	if (Mix{-0.2, 0.6, 0.6}).validate() == nil {
		t.Error("negative mix accepted")
	}
}

func TestUrgentMix(t *testing.T) {
	m := UrgentMix(0.7)
	if m[0] != 0.7 || math.Abs(m[1]-0.15) > 1e-12 || math.Abs(m[2]-0.15) > 1e-12 {
		t.Fatalf("urgent mix %v", m)
	}
	if m.validate() != nil {
		t.Fatal("urgent mix should validate")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(GeneratorConfig{Mix: DefaultMix}); err == nil {
		t.Error("zero baseline accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Mix: Mix{1, 1, 1}, BaselineLatency: 0.03}); err == nil {
		t.Error("bad mix accepted")
	}
	if _, err := NewGenerator(GeneratorConfig{Mix: DefaultMix, BaselineLatency: 0.03, SLOScale: -1}); err == nil {
		t.Error("negative SLO scale accepted")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []*request.Request {
		g := newGenerator(t, GeneratorConfig{Seed: 9, Mix: DefaultMix, BaselineLatency: 0.033})
		ts := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
		return g.FromTimestamps(ts)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Category != b[i].Category || a[i].PromptLen != b[i].PromptLen ||
			a[i].MaxNewTokens != b[i].MaxNewTokens || a[i].Ctx != b[i].Ctx {
			t.Fatalf("request %d differs between identical generators", i)
		}
	}
}

func TestGeneratorMixProportions(t *testing.T) {
	g := newGenerator(t, GeneratorConfig{Seed: 3, Mix: Mix{0.6, 0.2, 0.2}, BaselineLatency: 0.033})
	ts := make([]float64, 20000)
	for i := range ts {
		ts[i] = float64(i) * 0.01
	}
	reqs := g.FromTimestamps(ts)
	coding := 0
	for _, r := range reqs {
		if r.Category == request.Coding {
			coding++
		}
	}
	frac := float64(coding) / float64(len(reqs))
	if math.Abs(frac-0.6) > 0.02 {
		t.Fatalf("coding fraction %.3f, want 0.6", frac)
	}
}

func TestGeneratorSLOScaleOnlyAffectsCoding(t *testing.T) {
	base := 0.033
	g1 := newGenerator(t, GeneratorConfig{Seed: 3, Mix: DefaultMix, BaselineLatency: base, SLOScale: 1.0})
	g2 := newGenerator(t, GeneratorConfig{Seed: 3, Mix: DefaultMix, BaselineLatency: base, SLOScale: 0.6})
	r1c := g1.MakeAt(request.Coding, 0)
	r2c := g2.MakeAt(request.Coding, 0)
	if math.Abs(r1c.TPOTSLO-1.2*base) > 1e-12 {
		t.Fatalf("scale 1.0 coding SLO %g", r1c.TPOTSLO)
	}
	if math.Abs(r2c.TPOTSLO-0.6*1.2*base) > 1e-12 {
		t.Fatalf("scale 0.6 coding SLO %g", r2c.TPOTSLO)
	}
	r1s := g1.MakeAt(request.Summarization, 0)
	r2s := g2.MakeAt(request.Summarization, 0)
	if r1s.TPOTSLO != r2s.TPOTSLO {
		t.Fatal("SLO scale must not affect absolute-SLO categories")
	}
}

func TestGeneratorClipsContext(t *testing.T) {
	// The generator needs no clip: every category's longest prompt plus
	// longest output fits the context window.
	for _, spec := range DefaultCategories() {
		if spec.prompt.Max+spec.output.Max > MaxContext {
			t.Fatalf("%v: prompt max %d + output max %d exceed the %d-token context",
				spec.category, spec.prompt.Max, spec.output.Max, MaxContext)
		}
	}
}

func TestFromCategoryTimestampsSorted(t *testing.T) {
	g := newGenerator(t, GeneratorConfig{Seed: 5, Mix: DefaultMix, BaselineLatency: 0.033})
	perCat := [][]float64{{3, 1}, {2}, {0.5}}
	// FromCategoryTimestamps does not require sorted inputs per category.
	reqs := g.FromCategoryTimestamps(perCat)
	if len(reqs) != 4 {
		t.Fatalf("%d requests", len(reqs))
	}
	for i := 1; i < len(reqs); i++ {
		if reqs[i].ArrivalTime < reqs[i-1].ArrivalTime {
			t.Fatal("stream not sorted by arrival")
		}
	}
	// Categories must match their source lists.
	for _, r := range reqs {
		switch r.ArrivalTime {
		case 3, 1:
			if r.Category != request.Coding {
				t.Fatal("category 0 timestamps mislabeled")
			}
		case 2:
			if r.Category != request.Chat {
				t.Fatal("category 1 timestamps mislabeled")
			}
		case 0.5:
			if r.Category != request.Summarization {
				t.Fatal("category 2 timestamps mislabeled")
			}
		}
	}
}

func TestStreamStats(t *testing.T) {
	g := newGenerator(t, GeneratorConfig{Seed: 5, Mix: DefaultMix, BaselineLatency: 0.033})
	reqs := g.FromTimestamps([]float64{0, 1, 2, 3, 4})
	st := StreamStats(reqs)
	if st.Requests != 5 {
		t.Fatalf("requests %d", st.Requests)
	}
	if math.Abs(st.MeanRPS-5.0/4.0) > 1e-9 {
		t.Fatalf("mean RPS %g", st.MeanRPS)
	}
	if st.MeanPrompt <= 0 || st.MeanOutput <= 0 {
		t.Fatal("degenerate stream stats")
	}
	if StreamStats(nil).Requests != 0 {
		t.Fatal("empty stream stats")
	}
}

// TestSampleCategoryDegenerateMixes regression-tests the fallback branch of
// sampleCategory: float accumulation can leave the drawn u past the summed
// weights (the mix validates at 1±0.001), and the fallback must then land on
// a category the mix actually allows. Before the fix it blindly took the
// last index, so a mix like {1, 0, 0} could emit a probability-zero
// category. Each mix below undershoots 1 so the fallback genuinely fires
// over 200k draws.
func TestSampleCategoryDegenerateMixes(t *testing.T) {
	cases := []struct {
		name    string
		mix     Mix
		allowed map[request.Category]bool
	}{
		{"only-first", Mix{0.9995, 0, 0}, map[request.Category]bool{0: true}},
		{"only-middle", Mix{0, 0.9995, 0}, map[request.Category]bool{1: true}},
		{"trailing-zero", Mix{0.5, 0.4995, 0}, map[request.Category]bool{0: true, 1: true}},
		{"leading-zero", Mix{0, 0.0005, 0.999}, map[request.Category]bool{1: true, 2: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.mix.validate(); err != nil {
				t.Fatalf("test mix does not validate: %v", err)
			}
			g := newGenerator(t, GeneratorConfig{Seed: 5, Mix: c.mix, BaselineLatency: 0.033})
			for i := 0; i < 200_000; i++ {
				if cat := g.sampleCategory(); !c.allowed[cat] {
					t.Fatalf("draw %d emitted probability-zero category %v", i, cat)
				}
			}
		})
	}
}

// BenchmarkTable2Workloads reports the per-category request statistics of
// the Table 2 workload categories (prompt/output lengths and SLOs), with
// category 1's SLO taken against the Llama-70B-on-4xA100 baseline.
func BenchmarkTable2Workloads(b *testing.B) {
	baseline := gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4).BaselineLatency(512)
	for _, spec := range DefaultCategories() {
		b.Run(spec.category.String(), func(b *testing.B) {
			rng := mathutil.NewRNG(7)
			var prompt, output int
			for i := 0; i < b.N; i++ {
				prompt = spec.prompt.Sample(rng)
				output = spec.output.Sample(rng)
			}
			b.ReportMetric(float64(prompt), "prompt_tok")
			b.ReportMetric(float64(output), "output_tok")
			b.ReportMetric(1e3*spec.TPOT(baseline), "slo_ms")
		})
	}
}
