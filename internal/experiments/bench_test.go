package experiments

// The benchmark harness that regenerates every table and figure of the
// paper's evaluation (run with `go test -bench=. ./internal/experiments`).
//
// Each BenchmarkFigureN emits one sub-benchmark per (system, sweep point)
// cell and reports the paper's metrics (attainment %, goodput tokens/s,
// mean accepted tokens) via b.ReportMetric, so the full series can be read
// straight from the benchmark output. Trace durations are kept short (the
// paper replays 20-minute traces; the README's "Reproducing the paper's
// experiments" section describes the rescaling). The hot-path
// microbenchmarks live in the repository root's bench_test.go.

import (
	"fmt"
	"runtime"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/lm"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// benchDuration is the trace length used by the figure benchmarks.
const benchDuration = 20.0

// benchCell replays one (system, workload) cell on a single system and
// reports its metrics.
func benchCell(b *testing.B, kind SystemKind, setup ModelSetup,
	reqs []*request.Request, build BuildOptions) {
	b.Helper()
	spec := RunSpec{Kind: kind, Setup: setup, Seed: build.Seed, Duration: benchDuration, Build: build, Requests: reqs}
	var sum *metrics.Summary
	for i := 0; i < b.N; i++ {
		sum = benchSpec(b, spec, nil).Summary.Aggregate
	}
	b.ReportMetric(100*sum.Attainment(), "attain%")
	b.ReportMetric(sum.Goodput, "goodput_tok/s")
	b.ReportMetric(sum.MeanAcceptedPerStep, "mean_acc")
}

// benchSpec runs a described run (failing on err, the describing call's
// error) and returns its outcome.
func benchSpec(b *testing.B, spec RunSpec, err error) *Outcome {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	out, err := spec.Run()
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchTrace synthesizes the standard real-shape trace for a cell.
func benchTrace(b *testing.B, setup ModelSetup, mix workload.Mix, scale, rps float64) []*request.Request {
	b.Helper()
	gen, err := NewGenerator(setup, mix, scale, mathutil.Hash2(1, 0x77a1))
	if err != nil {
		b.Fatal(err)
	}
	ts := workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(1, 0x7071)), rps, benchDuration)
	return gen.FromTimestamps(ts)
}

// BenchmarkFigure1 reproduces the motivating study: five baseline systems on
// a two-SLO workload (Figure 1).
func BenchmarkFigure1(b *testing.B) {
	setup := Llama70B()
	reqs := benchTrace(b, setup, workload.Mix{0.5, 0.5, 0}, 1.0, 3.0)
	for _, kind := range figure1Systems() {
		b.Run(string(kind), func(b *testing.B) {
			benchCell(b, kind, setup, reqs, BuildOptions{Seed: 1})
		})
	}
}

// figureSweep runs the Figure 8/9/12 RPS sweep for one model setup.
func figureSweep(b *testing.B, setup ModelSetup, systems []SystemKind) {
	for _, rps := range rpsSweepsForSetup(setup) {
		reqs := benchTrace(b, setup, workload.DefaultMix, 1.0, rps)
		for _, kind := range systems {
			b.Run(fmt.Sprintf("%s/rps=%.1f", kind, rps), func(b *testing.B) {
				benchCell(b, kind, setup, reqs, BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure8and9Llama sweeps request rate on Llama-70B: SLO attainment
// (Figure 8) and goodput (Figure 9) come from the reported metrics.
func BenchmarkFigure8and9Llama(b *testing.B) {
	figureSweep(b, Llama70B(), endToEndSystems())
}

// BenchmarkFigure8and9Qwen is the Qwen2.5-32B column of Figures 8 and 9.
func BenchmarkFigure8and9Qwen(b *testing.B) {
	figureSweep(b, qwen32B(), endToEndSystems())
}

// BenchmarkFigure10 sweeps the urgent-request proportion at RPS 4.0
// (Figure 10).
func BenchmarkFigure10(b *testing.B) {
	setup := Llama70B()
	for _, urgent := range []float64{0.3, 0.5, 0.7, 0.9} {
		reqs := benchTrace(b, setup, workload.UrgentMix(urgent), 1.0, 4.0)
		for _, kind := range endToEndSystems() {
			b.Run(fmt.Sprintf("%s/urgent=%.0f%%", kind, 100*urgent), func(b *testing.B) {
				benchCell(b, kind, setup, reqs, BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure11 sweeps the SLO scale of the most urgent category at
// RPS 4.0 with 60% urgent requests (Figure 11).
func BenchmarkFigure11(b *testing.B) {
	setup := Llama70B()
	for _, scale := range []float64{1.6, 1.2, 1.0, 0.8, 0.6} {
		reqs := benchTrace(b, setup, workload.UrgentMix(0.6), scale, 4.0)
		for _, kind := range endToEndSystems() {
			b.Run(fmt.Sprintf("%s/scale=%.1f", kind, scale), func(b *testing.B) {
				benchCell(b, kind, setup, reqs, BuildOptions{Seed: 1})
			})
		}
	}
}

// BenchmarkFigure12 reports mean accepted tokens per verification step for
// the speculative systems across the RPS sweep (Figure 12; read the
// mean_acc metric).
func BenchmarkFigure12(b *testing.B) {
	figureSweep(b, Llama70B(), Figure12Systems())
}

// BenchmarkFigure13and14 replays the synthetic trace whose categories peak
// at different times (Figure 13) and reports SLO attainment under it
// (Figure 14).
func BenchmarkFigure13and14(b *testing.B) {
	setup := Llama70B()
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, 0x1314)
	if err != nil {
		b.Fatal(err)
	}
	perCat := workload.SyntheticCategoryTrace(mathutil.NewRNG(0x13), 4.0, 30)
	reqs := gen.FromCategoryTimestamps(perCat)
	for _, kind := range endToEndSystems() {
		b.Run(string(kind), func(b *testing.B) {
			benchCell(b, kind, setup, reqs, BuildOptions{Seed: 1})
		})
	}
}

// BenchmarkFigure15 measures AdaServe's serving-time breakdown; the
// sched_share% metric is the paper's CPU-scheduling slice.
func BenchmarkFigure15(b *testing.B) {
	for _, setup := range Setups() {
		b.Run(setup.Name, func(b *testing.B) {
			var sum *metrics.Summary
			for i := 0; i < b.N; i++ {
				s, err := Figure15(setup, RunOptions{Seed: 1, Duration: benchDuration})
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

// BenchmarkAblations runs the design-choice ablation table.
func BenchmarkAblations(b *testing.B) {
	setup := Llama70B()
	reqs := benchTrace(b, setup, workload.DefaultMix, 1.0, 3.8)
	cells := []struct {
		name  string
		kind  SystemKind
		build BuildOptions
	}{
		{"full", SysAdaServe, BuildOptions{Seed: 1}},
		{"interleaved-alg1", sysAdaServeInterleaved, BuildOptions{Seed: 1}},
		{"static-d4w1", SysAdaServe, BuildOptions{Seed: 1, StaticD: 4, StaticW: 1}},
		{"static-d8w4", SysAdaServe, BuildOptions{Seed: 1, StaticD: 8, StaticW: 4}},
		{"no-nmax", SysAdaServe, BuildOptions{Seed: 1, disableNMax: true}},
		{"no-cuda-graphs", SysAdaServe, BuildOptions{Seed: 1, disableCUDAGraphs: true}},
		{"greedy-verify", SysAdaServe, BuildOptions{Seed: 1, rule: lm.RuleGreedy}},
	}
	for _, c := range cells {
		b.Run(c.name, func(b *testing.B) {
			benchCell(b, c.kind, setup, reqs, c.build)
		})
	}
}

// BenchmarkPrefixProbe prices one prefix-affinity routing decision — a
// cached-prefix probe of every replica plus the pick — on a warm 8-replica
// prefix-caching fleet where each replica has served one tenant's first
// turn. The hit sub-benchmark routes a follow-up whose 2,048-token system
// prompt one replica holds (that replica's probe walks the whole cached
// prefix, the other seven stop at their first block); cold routes a prompt
// no replica holds, so every probe costs one block hash. Both report
// 0 allocs/op.
func BenchmarkPrefixProbe(b *testing.B) {
	const fleet, systemPrompt = 8, 2048
	cl, err := buildCluster(SysAdaServe, Llama70B(),
		make([]cluster.Role, fleet), "prefix-affinity", nil,
		BuildOptions{Seed: 1, Prefix: true, PrefixHostBlocks: PrefixHostTier})
	if err != nil {
		b.Fatal(err)
	}
	turn := func(id int, tenant uint64, tail int) *request.Request {
		r := request.New(id, request.Chat, 0.05, 0, systemPrompt+tail, 8, uint64(id)+1)
		r.PromptSegs = []request.PromptSegment{
			{Seed: tenant, Len: systemPrompt},
			{Seed: mathutil.Hash2(tenant, uint64(id)), Len: tail},
		}
		return r
	}
	replicas := cl.Replicas()
	for i, rep := range replicas {
		sys := rep.System()
		sys.Pool().Enqueue(turn(i, uint64(i)+1, 256))
		for now := 0.0; sys.Pool().NumWaiting()+sys.Pool().NumRunning() > 0; {
			now += sys.Iterate(now).Elapsed
		}
	}
	for _, c := range []struct {
		name string
		r    *request.Request
		want int
	}{
		{"hit", turn(fleet, 3, 512), 2},
		{"cold", turn(fleet+1, 0xc01d, 512), -1},
	} {
		b.Run(c.name, func(b *testing.B) {
			var router cluster.PrefixAffinity
			if got := router.Route(c.r, replicas); c.want >= 0 && got != c.want {
				b.Fatalf("routed to replica %d, want %d (the one holding the prefix)", got, c.want)
			}
			b.ReportAllocs()
			for b.Loop() {
				router.Route(c.r, replicas)
			}
		})
	}
}

// BenchmarkAutoscaleGrid runs a reduced autoscaling grid end to end — the
// equal-peak static fleet against the rate-prop elastic policy under both
// time-varying profiles at one router — reporting the cost-efficiency
// headline (good tokens per replica-second) per cell. This is the macro
// benchmark covering the elastic-fleet machinery: open-loop sources,
// provisioning cold starts, drain migrations, controller decisions.
func BenchmarkAutoscaleGrid(b *testing.B) {
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, profile := range autoscaleProfiles() {
		for _, config := range []string{"static", "rate-prop"} {
			b.Run(fmt.Sprintf("%s/%s", profile, config), func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					spec, err := autoscaleCell(setup, config, profile, "least-loaded", opts)
					sum = benchSpec(b, spec, err).Summary
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
// grid speeds up near-linearly for N ≤ cores). On a one-CPU host there is
// no N > 1 to compare, so only parallel=1 runs.
func BenchmarkFigureGrid(b *testing.B) {
	setup := Llama70B()
	pars := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		pars = append(pars, n)
	}
	for _, par := range pars {
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := RunOptions{
					Seed: 1, Duration: 10, Parallel: par,
					systems: []SystemKind{
						SysAdaServe, SysVLLMSpec6, SysVLLM,
					},
				}
				if _, err := Figure8and9(setup, opts); err != nil {
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
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, scenario := range faultScenarios() {
		for _, recovery := range []string{"none", "retry+hedge"} {
			b.Run(fmt.Sprintf("%s/%s", scenario, recovery), func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					spec, err := faultCell(setup, scenario, recovery, opts)
					sum = benchSpec(b, spec, err).Summary
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
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Parallel: 1}
	for _, cached := range []bool{false, true} {
		for _, router := range []string{"least-loaded", "prefix-affinity"} {
			name := fmt.Sprintf("off/%s", router)
			if cached {
				name = fmt.Sprintf("on/%s", router)
			}
			b.Run(name, func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					spec, err := prefixCell(setup, router, cached, opts)
					sum = benchSpec(b, spec, err).Summary
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
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Duration: 20, Parallel: 1}
	for _, scenario := range traceScenarios() {
		for _, config := range traceConfigs() {
			b.Run(scenario+"/"+config, func(b *testing.B) {
				var sum *metrics.ClusterSummary
				for i := 0; i < b.N; i++ {
					spec, err := traceCell(setup, scenario, config, opts)
					sum = benchSpec(b, spec, err).Summary
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
	setup := Llama70B()
	const obsDuration = 6.0
	run := func(b *testing.B, observe bool) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			spec := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: 1, Duration: obsDuration,
				Roles: make([]cluster.Role, 2), Router: "slo-aware",
				Open: &OpenLoad{Profile: "spike", RPS: AdaptiveMeanRPS(setup), Salt: 0xada}}
			if observe {
				spec.SnapshotEvery = 1
				spec.Observers = []serve.Observer{obs.NewSpanRecorder(), obs.NewMetricsExporter()}
			}
			benchSpec(b, spec, nil)
		}
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("observed", func(b *testing.B) { run(b, true) })
}
