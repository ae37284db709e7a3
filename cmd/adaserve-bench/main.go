// adaserve-bench regenerates the paper's evaluation artifacts: for every
// table and figure it replays the corresponding workload through AdaServe
// and the baselines on the simulated substrate and prints the series the
// paper reports.
//
// Usage:
//
//	adaserve-bench                       # run every experiment
//	adaserve-bench -exp fig8 -model llama
//	adaserve-bench -exp fig10,fig11 -duration 120 -seed 7
//
// Experiments: fig1, fig7, fig8, fig9, fig10, fig11, fig12, fig13, fig14,
// fig15, ablations, cluster (replica scaling × router policy), disagg
// (colocated vs prefill/decode-disaggregated fleets × router × SLO mix),
// autoscale (equal-peak static fleet vs elastic scaling policies × arrival
// profile × router, reporting goodput per replica-second), adaptive (static
// AdaServe vs closed-loop speculation tuning and overload admission under a
// flash crowd), faults (chaos sweep: replica crash, straggler and
// KV-transfer link faults × recovery modes none/retry/retry+hedge; -faults
// replaces the built-in scenarios with a custom schedule), prefix
// (shared-prefix KV caching on a multi-turn session workload: hit rate and
// TTFT attainment across caching off/on × router, including the
// prefix-affinity policy), trace (committed adversarial workload specs —
// correlated bursts, heavy-tail prompts — compiled per seed and replayed
// through static, admission-gated and autoscaled fleets), hardware (the
// profiled verification budget of each model on every GPU platform it fits).
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"strings"

	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/workload"
)

// knownExps is the one list the validation map, the error message and the
// -exp help text all derive from; keep it in sync with the dispatch in main.
func knownExps() []string {
	return []string{"all", "fig1", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "ablations", "cluster", "disagg",
		"autoscale", "adaptive", "faults", "prefix", "trace", "hardware"}
}

// parseExps validates the comma-separated -exp list against knownExps,
// failing with a one-line error on any unknown token.
func parseExps(expFlag string) (map[string]bool, error) {
	known := map[string]bool{}
	for _, name := range knownExps() {
		known[name] = true
	}
	want := map[string]bool{}
	for _, e := range strings.Split(expFlag, ",") {
		name := strings.TrimSpace(e)
		if !known[name] {
			return nil, fmt.Errorf("unknown -exp %q (have %s)", name, strings.Join(knownExps(), ", "))
		}
		want[name] = true
	}
	return want, nil
}

// expUsage is the -exp flag's help text.
func expUsage() string {
	return "comma-separated experiments: " + strings.Join(knownExps(), ", ")
}

func main() {
	expFlag := flag.String("exp", "all", expUsage())
	modelFlag := flag.String("model", "both", "model setup: llama, qwen, or both")
	duration := flag.Float64("duration", 120, "trace duration in seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines for independent grid points (results are identical at any value)")
	faultsFlag := flag.String("faults", "",
		`custom fault schedule for -exp faults, e.g. "crash@30+10:r0; slow@60+20:x4" (empty: built-in scenarios)`)
	flag.Parse()

	if err := experiments.CheckPositive("duration", "duration", *duration); err != nil {
		log.Fatal(err)
	}
	setups := experiments.Setups()
	if *modelFlag != "both" {
		setup, err := experiments.ParseModel(*modelFlag)
		if err != nil {
			log.Fatalf("unknown model %q (llama, qwen, both)", *modelFlag)
		}
		setups = []experiments.ModelSetup{setup}
	}

	want, err := parseExps(*expFlag)
	if err != nil {
		log.Fatal(err)
	}
	customFaults, err := faults.ParseSpec(*faultsFlag)
	if err != nil {
		log.Fatal(err)
	}
	all := want["all"]
	opts := experiments.RunOptions{Seed: *seed, Duration: *duration, Parallel: *parallel}

	if all || want["fig7"] {
		runFig7(*seed)
	}
	if all || want["fig13"] {
		runFig13(*seed, *duration)
	}
	for _, setup := range setups {
		fmt.Printf("\n================ %s (baseline %.1f ms/token) ================\n",
			setup.Name, 1e3*setup.BaselineLatency())
		if all || want["fig1"] {
			runFig1(setup, opts)
		}
		if all || want["fig8"] || want["fig9"] || want["fig12"] {
			runFig8912(setup, opts, all || want["fig8"], all || want["fig9"], all || want["fig12"])
		}
		if all || want["fig10"] {
			runSweep("Figure 10: urgent-request proportion (RPS=4.0)", setup, opts, experiments.Figure10, "urgent")
		}
		if all || want["fig11"] {
			runSweep("Figure 11: SLO scale (RPS=4.0, urgent=60%)", setup, opts, experiments.Figure11, "slo-scale")
		}
		if all || want["fig14"] {
			runFig14(setup, opts)
		}
		if all || want["fig15"] {
			runFig15(setup, opts)
		}
		if all || want["ablations"] {
			runAblations(setup, opts)
		}
		for _, sw := range sweeps(customFaults) {
			if all || want[sw.name] {
				runSweepTable(sw, setup, opts)
			}
		}
		if all || want["hardware"] {
			runHardware(setup)
		}
	}
}

// sweep is one cluster experiment: its title line, its grid and the table
// that prints it. gap adds a blank line after the table.
type sweep struct {
	name  string
	title func(experiments.ModelSetup, experiments.RunOptions) string
	run   func(experiments.ModelSetup, experiments.RunOptions) ([]experiments.Cell, error)
	table experiments.Table[experiments.Cell]
	gap   bool
}

// sweeps lists the cluster experiments in print order; a non-empty custom
// schedule replaces the built-in fault scenarios.
func sweeps(custom faults.Spec) []sweep {
	faultRun := experiments.Faults
	if !custom.Empty() {
		faultRun = func(setup experiments.ModelSetup, opts experiments.RunOptions) ([]experiments.Cell, error) {
			return experiments.FaultsWithSpec(setup, custom, opts)
		}
	}
	return []sweep{
		{"cluster", func(setup experiments.ModelSetup, _ experiments.RunOptions) string {
			return fmt.Sprintf("Replica scaling: attainment vs replica count x router (%.1f rps per replica)",
				experiments.ClusterPerReplicaRPS(setup))
		}, experiments.ClusterScaling, experiments.ClusterTable, false},
		{"disagg", func(setup experiments.ModelSetup, _ experiments.RunOptions) string {
			return fmt.Sprintf("Disaggregated prefill/decode: 4-replica fleet splits x router x mix (%.1f rps aggregate, %s)",
				experiments.DisaggAggregateRPS(setup), experiments.DisaggLink.Name)
		}, experiments.Disaggregation, experiments.DisaggTable, true},
		{"autoscale", func(_ experiments.ModelSetup, opts experiments.RunOptions) string {
			return fmt.Sprintf("Autoscaling: equal-peak static fleet vs scaling policies x profile x router (capacity %d, cold start %.1fs)",
				experiments.AutoscaleFleet, experiments.AutoscaleColdStart(opts.Duration))
		}, experiments.Autoscaling, experiments.AutoscaleTable, true},
		{"adaptive", func(setup experiments.ModelSetup, _ experiments.RunOptions) string {
			return fmt.Sprintf("Adaptive control: static vs closed-loop speculation tuning and overload admission (fleet %d, mean %.1f rps)",
				experiments.AdaptiveFleet, experiments.AdaptiveMeanRPS(setup))
		}, experiments.AdaptiveControl, experiments.AdaptiveTable, true},
		{"faults", func(setup experiments.ModelSetup, _ experiments.RunOptions) string {
			return fmt.Sprintf("Faults: failure scenarios x recovery modes (fleet %d elastic, link on 2P2D, mean %.1f rps; %.1f with hedge headroom)",
				experiments.FaultFleet, experiments.FaultMeanRPS(setup, "crash"), experiments.FaultMeanRPS(setup, "straggler"))
		}, faultRun, experiments.FaultsTable, true},
		{"prefix", func(experiments.ModelSetup, experiments.RunOptions) string {
			return fmt.Sprintf("Prefix caching: hit rate x TTFT attainment, caching off/on x router (fleet %d, %d tenants, host tier %d blocks)",
				experiments.PrefixFleet, experiments.PrefixTenants, experiments.PrefixHostTier)
		}, experiments.PrefixCaching, experiments.PrefixTable, true},
		{"trace", func(experiments.ModelSetup, experiments.RunOptions) string {
			return fmt.Sprintf("Trace replay: committed adversarial specs x control configuration (fleet %d static, %d elastic, %s router)",
				experiments.TraceFleet, experiments.TraceCapacity, experiments.TraceRouter)
		}, experiments.TraceReplay, experiments.TraceTable, true},
	}
}

func runSweepTable(sw sweep, setup experiments.ModelSetup, opts experiments.RunOptions) {
	fmt.Printf("\n--- %s ---\n", sw.title(setup, opts))
	cells, err := sw.run(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(sw.table.Render(cells))
	if sw.gap {
		fmt.Println()
	}
}

func runHardware(setup experiments.ModelSetup) {
	fmt.Println("\n--- Hardware sensitivity: profiled budget across GPU platforms ---")
	rows, err := experiments.HardwareSensitivity(setup, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.RenderHardware(setup, rows))
}

func runFig7(seed uint64) {
	fmt.Println("\n--- Figure 7: real-world trace shape (requests per 30s bin, mean 1 rps) ---")
	ts := workload.RealTrace(mathutil.NewRNG(seed), 1.0, 1200)
	bins := workload.BinCounts(ts, 1200, 30)
	renderSpark(bins, 30)
}

func runFig13(seed uint64, duration float64) {
	fmt.Println("\n--- Figure 13: synthetic per-category trace (requests per bin) ---")
	perCat := workload.SyntheticCategoryTrace(mathutil.NewRNG(seed), 4.0, duration)
	names := []string{"coding", "chat", "summarization"}
	for i, ts := range perCat {
		fmt.Printf("%-14s", names[i])
		renderSpark(workload.BinCounts(ts, duration, duration/20), 0)
	}
}

func renderSpark(bins []int, width int) {
	max := 1
	for _, b := range bins {
		if b > max {
			max = b
		}
	}
	glyphs := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, b := range bins {
		sb.WriteRune(glyphs[b*(len(glyphs)-1)/max])
	}
	fmt.Printf("%s  (peak %d)\n", sb.String(), max)
}

func runFig1(setup experiments.ModelSetup, opts experiments.RunOptions) {
	fmt.Println("\n--- Figure 1: baselines on a two-SLO workload ---")
	pts, err := experiments.Figure1(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-18s %14s %14s %12s %12s\n",
		"system", "cat1 TPOT ms", "cat2 TPOT ms", "cat1 viol%", "cat2 viol%")
	for _, p := range pts {
		c1 := p.Sum.Aggregate.PerCategory[0]
		c2 := p.Sum.Aggregate.PerCategory[1]
		fmt.Printf("%-18s %14.1f %14.1f %12.0f %12.0f\n", p.System,
			1e3*c1.MeanTPOT, 1e3*c2.MeanTPOT,
			100*(1-c1.Attainment()), 100*(1-c2.Attainment()))
	}
}

func runFig8912(setup experiments.ModelSetup, opts experiments.RunOptions, f8, f9, f12 bool) {
	pts, err := experiments.Figure8and9(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	if f8 {
		fmt.Println("\n--- Figure 8: SLO attainment (%) vs RPS ---")
		fmt.Print(experiments.SeriesTable("rps", "attainment %",
			func(s *metrics.Summary) float64 { return 100 * s.Attainment() }).Render(pts))
	}
	if f9 {
		fmt.Println("\n--- Figure 9: goodput (tokens/s) vs RPS ---")
		fmt.Print(experiments.SeriesTable("rps", "goodput tok/s",
			func(s *metrics.Summary) float64 { return s.Goodput }).Render(pts))
	}
	if f12 {
		fmt.Println("\n--- Figure 12: mean accepted tokens per verification step vs RPS ---")
		spec := map[experiments.SystemKind]bool{}
		for _, k := range experiments.Figure12Systems() {
			spec[k] = true
		}
		var specPts []experiments.Cell
		for _, p := range pts {
			if spec[p.System] {
				specPts = append(specPts, p)
			}
		}
		fmt.Print(experiments.SeriesTable("rps", "mean acc",
			func(s *metrics.Summary) float64 { return s.MeanAcceptedPerStep }).Render(specPts))
	}
}

type sweepFn func(experiments.ModelSetup, experiments.RunOptions) ([]experiments.Cell, error)

func runSweep(title string, setup experiments.ModelSetup, opts experiments.RunOptions, fn sweepFn, xName string) {
	fmt.Println("\n--- " + title + " ---")
	pts, err := fn(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.SeriesTable(xName, "attainment %",
		func(s *metrics.Summary) float64 { return 100 * s.Attainment() }).Render(pts))
	fmt.Println()
	fmt.Print(experiments.SeriesTable(xName, "goodput tok/s",
		func(s *metrics.Summary) float64 { return s.Goodput }).Render(pts))
}

func runFig14(setup experiments.ModelSetup, opts experiments.RunOptions) {
	fmt.Println("\n--- Figure 14: SLO attainment under the synthetic trace ---")
	pts, err := experiments.Figure13and14(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pts {
		fmt.Printf("%-18s %6.1f%%\n", p.System, 100*p.Sum.Attainment())
	}
}

func runFig15(setup experiments.ModelSetup, opts experiments.RunOptions) {
	fmt.Println("\n--- Figure 15: AdaServe latency breakdown ---")
	sum, err := experiments.Figure15(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	b := sum.Breakdown
	total := b.Total()
	fmt.Printf("scheduling %.2f%%, speculation %.1f%%, verification %.1f%% (prefill co-batched into verification)\n",
		100*b.Scheduling/total, 100*b.Speculation/total, 100*(b.Verification+b.Prefill)/total)
}

func runAblations(setup experiments.ModelSetup, opts experiments.RunOptions) {
	fmt.Println("\n--- Ablations (RPS 3.8, default mix) ---")
	rows, err := experiments.Ablations(setup, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.AblationsTable.Render(rows))
}
