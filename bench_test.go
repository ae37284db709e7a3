// Package adaserve_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (run with
// `go test -bench=. -benchmem`), plus microbenchmarks of the hot paths.
//
// Each BenchmarkFigureN emits one sub-benchmark per (system, sweep point)
// cell and reports the paper's metrics (attainment %, goodput tokens/s,
// mean accepted tokens) via b.ReportMetric, so the full series can be read
// straight from the benchmark output. Trace durations are kept short (the
// paper replays 20-minute traces; EXPERIMENTS.md documents the rescaling).
package adaserve_test

import (
	"fmt"
	"runtime"
	"testing"

	"adaserve/internal/core"
	"adaserve/internal/engine"
	"adaserve/internal/experiments"
	"adaserve/internal/gpu"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/sim"
	"adaserve/internal/toktree"
	"adaserve/internal/workload"
)

// benchDuration is the trace length used by the figure benchmarks.
const benchDuration = 20.0

// runCell replays one (system, workload) cell and reports its metrics.
func runCell(b *testing.B, kind experiments.SystemKind, setup experiments.ModelSetup,
	reqs []*request.Request, build experiments.BuildOptions) {
	b.Helper()
	var sum *metrics.Summary
	for i := 0; i < b.N; i++ {
		sys, err := experiments.Build(kind, setup, build)
		if err != nil {
			b.Fatal(err)
		}
		cp := make([]*request.Request, len(reqs))
		for j, r := range reqs {
			cp[j] = request.New(r.ID, r.Category, r.TPOTSLO, r.ArrivalTime, r.PromptLen, r.MaxNewTokens, r.Seed)
		}
		res, err := sim.Run(sys, cp, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sum = res.Summary
	}
	b.ReportMetric(100*sum.Attainment(), "attain%")
	b.ReportMetric(sum.Goodput, "goodput_tok/s")
	b.ReportMetric(sum.MeanAcceptedPerStep, "mean_acc")
}

// trace synthesizes the standard real-shape trace for a cell.
func trace(b *testing.B, setup experiments.ModelSetup, mix workload.Mix, scale, rps float64) []*request.Request {
	b.Helper()
	gen, err := experiments.NewGenerator(setup, mix, scale, mathutil.Hash2(1, 0x77a1))
	if err != nil {
		b.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(1, 0x7071)), rps, benchDuration)
	return gen.FromTimestamps(ts)
}

// BenchmarkFigure1 reproduces the motivating study: five baseline systems on
// a two-SLO workload (Figure 1).
func BenchmarkFigure1(b *testing.B) {
	setup := experiments.Llama70B()
	reqs := trace(b, setup, workload.Mix{0.5, 0.5, 0}, 1.0, 3.0)
	for _, kind := range experiments.Figure1Systems() {
		b.Run(string(kind), func(b *testing.B) {
			runCell(b, kind, setup, reqs, experiments.BuildOptions{Seed: 1})
		})
	}
}

// figureSweep runs the Figure 8/9/12 RPS sweep for one model setup.
func figureSweep(b *testing.B, setup experiments.ModelSetup, systems []experiments.SystemKind) {
	for _, rps := range experiments.RPSSweepsForSetup(setup) {
		reqs := trace(b, setup, workload.DefaultMix, 1.0, rps)
		for _, kind := range systems {
			b.Run(fmt.Sprintf("%s/rps=%.1f", kind, rps), func(b *testing.B) {
				runCell(b, kind, setup, reqs, experiments.BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure8and9Llama sweeps request rate on Llama-70B: SLO attainment
// (Figure 8) and goodput (Figure 9) come from the reported metrics.
func BenchmarkFigure8and9Llama(b *testing.B) {
	figureSweep(b, experiments.Llama70B(), experiments.EndToEndSystems())
}

// BenchmarkFigure8and9Qwen is the Qwen2.5-32B column of Figures 8 and 9.
func BenchmarkFigure8and9Qwen(b *testing.B) {
	figureSweep(b, experiments.Qwen32B(), experiments.EndToEndSystems())
}

// BenchmarkFigure10 sweeps the urgent-request proportion at RPS 4.0
// (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	setup := experiments.Llama70B()
	for _, urgent := range []float64{0.3, 0.5, 0.7, 0.9} {
		reqs := trace(b, setup, workload.UrgentMix(urgent), 1.0, 4.0)
		for _, kind := range experiments.EndToEndSystems() {
			b.Run(fmt.Sprintf("%s/urgent=%.0f%%", kind, 100*urgent), func(b *testing.B) {
				runCell(b, kind, setup, reqs, experiments.BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure11 sweeps the SLO scale of the most urgent category at
// RPS 4.0 with 60% urgent requests (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	setup := experiments.Llama70B()
	for _, scale := range []float64{1.6, 1.2, 1.0, 0.8, 0.6} {
		reqs := trace(b, setup, workload.UrgentMix(0.6), scale, 4.0)
		for _, kind := range experiments.EndToEndSystems() {
			b.Run(fmt.Sprintf("%s/scale=%.1f", kind, scale), func(b *testing.B) {
				runCell(b, kind, setup, reqs, experiments.BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure12 reports mean accepted tokens per verification step for
// the speculative systems across the RPS sweep (Figure 12; read the
// mean_acc metric).
func BenchmarkFigure12(b *testing.B) {
	figureSweep(b, experiments.Llama70B(), experiments.Figure12Systems())
}

// BenchmarkFigure13and14 replays the synthetic trace whose categories peak
// at different times (Figure 13) and reports SLO attainment under it
// (Figure 14).
func BenchmarkFigure13and14(b *testing.B) {
	setup := experiments.Llama70B()
	gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, 0x1314)
	if err != nil {
		b.Fatal(err)
	}
	perCat := workload.SyntheticCategoryTrace(mathutil.NewRNG(0x13), 4.0, 30)
	reqs := gen.FromCategoryTimestamps(perCat)
	for _, kind := range experiments.EndToEndSystems() {
		b.Run(string(kind), func(b *testing.B) {
			runCell(b, kind, setup, reqs, experiments.BuildOptions{Seed: 1})
		})
	}
}

// BenchmarkFigure15 measures AdaServe's serving-time breakdown; the
// sched_share% metric is the paper's CPU-scheduling slice.
func BenchmarkFigure15(b *testing.B) {
	for _, setup := range experiments.Setups() {
		b.Run(setup.Name, func(b *testing.B) {
			var sum *metrics.Summary
			for i := 0; i < b.N; i++ {
				s, err := experiments.Figure15(setup, experiments.RunOptions{Seed: 1, Duration: benchDuration})
				if err != nil {
					b.Fatal(err)
				}
				sum = s
			}
			b.ReportMetric(100*sum.Breakdown.SchedulingShare(), "sched_share%")
			b.ReportMetric(100*sum.Breakdown.Speculation/sum.Breakdown.Total(), "spec_share%")
		})
	}
}

// BenchmarkTable2Workloads reports the per-category request statistics of
// the Table 2 workload categories (prompt/output lengths and SLOs).
func BenchmarkTable2Workloads(b *testing.B) {
	setup := experiments.Llama70B()
	for _, spec := range workload.DefaultCategories() {
		b.Run(spec.App, func(b *testing.B) {
			rng := mathutil.NewRNG(7)
			var prompt, output int
			for i := 0; i < b.N; i++ {
				prompt = spec.Prompt.Sample(rng)
				output = spec.Output.Sample(rng)
			}
			b.ReportMetric(float64(prompt), "prompt_tok")
			b.ReportMetric(float64(output), "output_tok")
			b.ReportMetric(1e3*spec.TPOT(setup.BaselineLatency()), "slo_ms")
		})
	}
}

// BenchmarkAblations runs the design-choice ablation table.
func BenchmarkAblations(b *testing.B) {
	setup := experiments.Llama70B()
	reqs := trace(b, setup, workload.DefaultMix, 1.0, 3.8)
	cells := []struct {
		name  string
		kind  experiments.SystemKind
		build experiments.BuildOptions
	}{
		{"full", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1}},
		{"interleaved-alg1", experiments.SysAdaServeInterleaved, experiments.BuildOptions{Seed: 1}},
		{"static-d4w1", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1, StaticD: 4, StaticW: 1}},
		{"static-d8w4", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1, StaticD: 8, StaticW: 4}},
		{"no-nmax", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1, DisableNMax: true}},
		{"no-cuda-graphs", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1, DisableCUDAGraphs: true}},
		{"greedy-verify", experiments.SysAdaServe, experiments.BuildOptions{Seed: 1, Rule: lm.RuleGreedy}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			runCell(b, c.kind, setup, reqs, c.build)
		})
	}
}

// ---------------------------------------------------------------------------
// Microbenchmarks of the hot paths (true per-op costs, -benchmem friendly).
// ---------------------------------------------------------------------------

func benchModels(b *testing.B) (*lm.SyntheticLM, *lm.DraftLM) {
	b.Helper()
	target := lm.MustSyntheticLM("t", 1, 4096, 16, 3.2, 0.02)
	draft := lm.MustDraftLM("d", target, 0.88, 2)
	// Allocate both caches' slabs outside the timed loops.
	_ = draft.Dist(lm.Context{})
	return target, draft
}

// BenchmarkLMDist measures one synthetic next-token distribution lookup.
func BenchmarkLMDist(b *testing.B) {
	target, _ := benchModels(b)
	ctx := lm.NewContext(7, []lm.Token{1, 2, 3, 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = target.Dist(ctx)
	}
}

// BenchmarkLMDistMiss measures a warm cache miss: every op asks for a fresh
// context, as most draft-step and verify lookups of a simulation do. The
// draft sub-benchmark's misses also miss in the target.
func BenchmarkLMDistMiss(b *testing.B) {
	target, draft := benchModels(b)
	// One counter across every run of every sub-benchmark, so no context
	// ever repeats.
	seed := uint64(0)
	for _, c := range []struct {
		name  string
		model lm.Model
	}{{"target", target}, {"draft", draft}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seed++
				_ = c.model.Dist(lm.Context{ReqSeed: seed})
			}
		})
	}
}

// BenchmarkBeamSearch measures candidate-tree construction (d=6, w=4) on
// the pooled path the engine uses: a reused tree and beam builder.
func BenchmarkBeamSearch(b *testing.B) {
	_, draft := benchModels(b)
	ctx := lm.Context{ReqSeed: 9}
	var pool toktree.TreePool
	var bb toktree.BeamBuilder
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := pool.Get(ctx, 5)
		if _, _, err := bb.Search(t, draft, 6, 4); err != nil {
			b.Fatal(err)
		}
		pool.Put(t)
	}
}

// BenchmarkSelect measures Algorithm 2's selection phases over 16 candidate
// trees with a 128-token budget — the per-iteration CPU cost Figure 15
// bounds — on the pooled Selector path schedulers use.
func BenchmarkSelect(b *testing.B) {
	_, draft := benchModels(b)
	var reqs []core.SelectRequest
	for i := 0; i < 16; i++ {
		br, err := toktree.BeamSearch(draft, lm.Context{ReqSeed: uint64(i)}, 5, 6, 4)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, core.SelectRequest{Cand: br.Tree, MinAccept: 1.5})
	}
	var sel core.Selector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sel.Select(reqs, core.SelectConfig{Budget: 128, Depth: 6, PerRequestMax: 12}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyTree measures one tree verification walk.
func BenchmarkVerifyTree(b *testing.B) {
	target, draft := benchModels(b)
	br, err := toktree.BeamSearch(draft, lm.Context{ReqSeed: 3}, 5, 6, 4)
	if err != nil {
		b.Fatal(err)
	}
	sel := toktree.NewSelection(br.Tree)
	for id := 1; id < br.Tree.Size(); id++ {
		if sel.Has(br.Tree.Nodes[id].Parent) {
			sel.Add(id)
		}
	}
	v := lm.NewVerifier(target, draft, lm.RuleSampleMatch, mathutil.NewRNG(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = toktree.Verify(sel, v)
	}
}

// BenchmarkCostModel measures one roofline latency evaluation.
func BenchmarkCostModel(b *testing.B) {
	cm := gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4)
	shape := gpu.BatchShape{Tokens: 128, Seqs: 32, KVTokens: 32 * 700}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cm.ForwardLatencyPure(shape)
	}
}

// BenchmarkEngineIteration measures one full AdaServe speculate-select-
// verify iteration over an 8-request batch (simulated time excluded; this
// is the real CPU cost of the simulator itself).
func BenchmarkEngineIteration(b *testing.B) {
	target, draft := benchModels(b)
	eng := engine.MustNew(engine.Config{
		Target: target, Draft: draft,
		TargetCost: gpu.MustCostModel(gpu.A100, gpu.Llama70B, 4),
		DraftCost:  gpu.MustCostModel(gpu.A100, gpu.Llama1B, 1),
		Seed:       3,
	})
	reqs := make([]*request.Request, 8)
	for i := range reqs {
		r := request.New(i, request.Chat, 0.05, 0, 64, 1<<30, uint64(i)*17+3)
		r.Phase = request.Decoding
		r.PrefillDone = 64
		reqs[i] = r
	}
	// Per-iteration scratch reused the way schedulers reuse it.
	var sel core.Selector
	selReqs := make([]core.SelectRequest, len(reqs))
	items := make([]engine.VerifyItem, len(reqs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec, err := eng.SpeculateBeams(reqs, 4, 3)
		if err != nil {
			b.Fatal(err)
		}
		for j := range reqs {
			selReqs[j] = core.SelectRequest{Cand: spec.Trees[j], MinAccept: 1.5}
		}
		selRes, err := sel.Select(selReqs, core.SelectConfig{Budget: 96, Depth: 4, PerRequestMax: 10})
		if err != nil {
			b.Fatal(err)
		}
		for j, r := range reqs {
			items[j] = engine.VerifyItem{Req: r, Sel: selRes.Selections[j]}
		}
		ver := eng.VerifyTrees(items)
		for j, r := range reqs {
			engine.CommitVerify(r, ver.Results[j], 0)
		}
	}
}

// BenchmarkAutoscaleGrid runs a reduced autoscaling grid end to end — the
// equal-peak static fleet against the rate-prop elastic policy under both
// time-varying profiles at one router — reporting the cost-efficiency
// headline (good tokens per replica-second) per cell. This is the macro
// benchmark covering the elastic-fleet machinery: open-loop sources,
// provisioning cold starts, drain migrations, controller decisions.
func BenchmarkAutoscaleGrid(b *testing.B) {
	setup := experiments.Llama70B()
	opts := experiments.RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, profile := range experiments.AutoscaleProfiles() {
		for _, config := range []string{"static", "rate-prop"} {
			b.Run(fmt.Sprintf("%s/%s", profile, config), func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					s, err := experiments.AutoscaleCell(setup, config, profile, "least-loaded", opts)
					if err != nil {
						b.Fatal(err)
					}
					sum = s
				}
				b.ReportMetric(sum.Autoscale.GoodputPerReplicaSecond(), "good_tok/replica_s")
				b.ReportMetric(100*sum.Attainment(), "attain%")
				b.ReportMetric(sum.Autoscale.ReplicaSeconds, "replica_s")
			})
		}
	}
}

// BenchmarkFigureGrid runs a shortened Figure 8/9 grid end to end through
// the experiment runner at different worker counts: the macro benchmark for
// both the token hot path (sub-benchmark parallel=1) and the parallel
// runner's scaling (compare parallel=N against it; on multi-core hosts the
// grid speeds up near-linearly for N ≤ cores).
func BenchmarkFigureGrid(b *testing.B) {
	setup := experiments.Llama70B()
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := experiments.RunOptions{
					Seed: 1, Duration: 10, Parallel: par,
					Systems: []experiments.SystemKind{
						experiments.SysAdaServe, experiments.SysVLLMSpec6, experiments.SysVLLM,
					},
				}
				if _, err := experiments.Figure8and9(setup, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFaultGrid runs a reduced chaos grid end to end — every failure
// scenario under no recovery and under full retry+hedge recovery —
// reporting the recovery headlines (goodput, attainment, worst-case TTFT)
// per cell. This is the macro benchmark covering the fault-injection
// machinery: crash harvest and failover retries, clock-divergence hedging,
// link-fault recompute fallback, and autoscale-driven replacement.
func BenchmarkFaultGrid(b *testing.B) {
	setup := experiments.Llama70B()
	opts := experiments.RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, scenario := range experiments.FaultScenarios() {
		for _, recovery := range []string{"none", "retry+hedge"} {
			b.Run(fmt.Sprintf("%s/%s", scenario, recovery), func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					s, err := experiments.FaultCell(setup, scenario, recovery, opts)
					if err != nil {
						b.Fatal(err)
					}
					sum = s
				}
				b.ReportMetric(sum.Goodput(), "good_tok/s")
				b.ReportMetric(100*sum.Attainment(), "attain%")
				b.ReportMetric(sum.Aggregate.MaxTTFT, "max_ttft_s")
			})
		}
	}
}

// BenchmarkPrefixGrid runs a reduced prefix-caching grid end to end — the
// closed-loop session workload with caching off and on, under the
// least-loaded baseline and the prefix-affinity router — reporting the
// cache headlines (hit rate, prefill tokens saved, TTFT attainment) per
// cell. This is the macro benchmark covering the shared-prefix machinery:
// block-hash matching at admission, refcounted sharing, cold-block
// eviction to the host tier, and affinity routing probes.
func BenchmarkPrefixGrid(b *testing.B) {
	setup := experiments.Llama70B()
	opts := experiments.RunOptions{Seed: 1, Parallel: 1}
	for _, cached := range []bool{false, true} {
		for _, router := range []string{"least-loaded", "prefix-affinity"} {
			name := fmt.Sprintf("off/%s", router)
			if cached {
				name = fmt.Sprintf("on/%s", router)
			}
			b.Run(name, func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					s, err := experiments.PrefixCell(setup, router, cached, opts)
					if err != nil {
						b.Fatal(err)
					}
					sum = s
				}
				if sum.Prefix != nil {
					b.ReportMetric(100*sum.Prefix.HitRate(), "hit%")
					b.ReportMetric(float64(sum.Prefix.HitTokens), "saved_tok")
				}
				b.ReportMetric(100*sum.TTFTAttainment(), "ttft_attain%")
			})
		}
	}
}

// BenchmarkTraceGrid runs a reduced trace-replay grid end to end — every
// committed adversarial workload spec compiled per seed and replayed under
// the static, admission-gated and autoscaled configurations — reporting
// attainment, goodput and the gate's decisions per cell. This is the macro
// benchmark covering the trace subsystem: spec parsing, cohort compilation
// (correlated bursts, heavy-tail length sampling, modulation), replay
// sourcing, and the control loops downstream.
func BenchmarkTraceGrid(b *testing.B) {
	setup := experiments.Llama70B()
	opts := experiments.RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, scenario := range experiments.TraceScenarios() {
		for _, config := range experiments.TraceConfigs() {
			b.Run(scenario+"/"+config, func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					s, err := experiments.TraceCell(setup, scenario, config, opts)
					if err != nil {
						b.Fatal(err)
					}
					sum = s
				}
				b.ReportMetric(100*sum.Attainment(), "attain%")
				b.ReportMetric(sum.Goodput(), "goodput")
				if sum.Admission != nil {
					b.ReportMetric(float64(sum.Admission.Rejected), "rejected")
				}
			})
		}
	}
}

// BenchmarkObsOverhead prices the streaming observability layer against the
// observer-free hot path. The bare sub-benchmark runs a two-replica cluster
// with no observers subscribed — the driver's tracking flag stays off, so no
// event values are materialized; any allocs/op growth here is a hot-path
// regression. The observed sub-benchmark subscribes the span recorder and
// metrics exporter (with periodic snapshots) to the identical run, so the
// delta between the two is the full cost of observability.
func BenchmarkObsOverhead(b *testing.B) {
	setup := experiments.Llama70B()
	const obsDuration = 6.0
	run := func(b *testing.B, observe bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cl, err := experiments.BuildCluster(experiments.SysAdaServe, setup, 2, "slo-aware",
				experiments.BuildOptions{Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			sopts := serve.Options{}
			if observe {
				sopts.SnapshotEvery = 1
			}
			srv, err := serve.NewServer(cl, sopts)
			if err != nil {
				b.Fatal(err)
			}
			if observe {
				srv.Subscribe(obs.NewSpanRecorder())
				srv.Subscribe(obs.NewMetricsExporter())
			}
			gen, err := experiments.NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(1, 0xada))
			if err != nil {
				b.Fatal(err)
			}
			rate, maxRate, err := workload.RateProfile("spike", experiments.AdaptiveMeanRPS(setup), obsDuration)
			if err != nil {
				b.Fatal(err)
			}
			src, err := serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(1, 0x7a)), rate, maxRate, obsDuration)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := srv.Run(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("observed", func(b *testing.B) { run(b, true) })
}
