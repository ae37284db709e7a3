// adaserve-sim runs one serving configuration over one synthesized workload
// and dumps the full metric summary — the single-run counterpart of
// adaserve-bench's sweeps. The flags map onto one experiments.RunSpec, run
// through the unified event-driven driver (internal/serve); unknown or
// out-of-range flag values fail fast with a one-line error.
//
// By default the workload is a closed trace replay (the paper's bursty
// real-world shape). With -rate-profile the run is open-loop instead:
// arrivals are synthesized on the fly from a time-varying Poisson process
// (constant, ramp, spike, diurnal), so the trace is never materialized.
// With -live the run streams periodic snapshots — windowed attainment and
// goodput per SLO class — plus SLO-violation events as they become certain.
//
// With -replicas > 1 it runs a multi-replica cluster instead: N independent
// copies of the system behind the chosen router policy, fed from one global
// arrival stream, reporting cluster-aggregate and per-replica metrics. In
// cluster mode -rps is the per-replica rate (the workload carries
// rps × replicas requests per second).
//
// With -roles the cluster is disaggregated: "-roles 2P2D" runs two dedicated
// prefill replicas and two dedicated decode replicas, migrating each request
// at prefill completion over the modeled interconnect. -roles implies the
// replica count; setting -replicas to a contradictory value is an error.
//
// With -autoscale the fleet is elastic: -replicas/-roles define the capacity
// fleet, the run starts at one active replica per role pool, and the chosen
// policy (target-queue, rate-prop, slo-feedback) scales within the capacity
// — provisioning cold starts, drain migrations and all. -live then also
// shows the fleet size and every scale event.
//
// With -adaptive a closed-loop controller retunes AdaServe's speculation
// envelope (depth/width ceilings) from rolling acceptance and windowed SLO
// attainment; with -admission an overload gate degrades or rejects arrivals
// the saturated fleet provably cannot serve. The two compose (the full
// closed loop) and -live streams every degrade/reject decision.
//
// With -prefix the run replays the multi-turn session workload (per-tenant
// shared system prompts, each follow-up turn re-sending the full prior
// conversation, submitted closed-loop as turns finish) with shared-prefix KV
// caching enabled: admitted requests skip prefill for any prompt prefix whose
// blocks are already resident, and cold blocks spill to a host offload tier
// sized by -prefix-tier (reloads pay the modeled interconnect). -live then
// also streams [pfx] hit/evict/reload lines.
//
// With -trace the run replays a recorded trace file (format v1, see
// internal/trace) as its arrival stream; with -spec it first compiles a
// declarative workload spec into such a trace (deterministic per -seed, with
// -duration overriding the spec's when set). With -export any run records
// its admitted arrival stream to a trace file afterward, closing the loop:
// an open-loop run exported once replays identically forever. -trace, -spec,
// -rate-profile and -prefix each pick the workload source, so at most one
// may be set; trace replay ignores -rps and -urgent (the file carries the
// arrivals).
//
// With -faults the run replays a deterministic failure schedule — replica
// crashes, stragglers, KV-transfer link faults, or a Poisson crash hazard —
// and -recovery picks the response: none, retry (timeout detection, budgeted
// re-dispatch with backoff, failover), or retry+hedge (plus duplicate
// dispatches for TTFT-at-risk requests on suspect replicas). Cluster mode
// only; -live then also streams every crash, recovery, retry and hedge.
//
// Usage:
//
//	adaserve-sim -system AdaServe -model llama -rps 3.8 -duration 120
//	adaserve-sim -system "vLLM-Spec (6)" -urgent 0.7 -slo-scale 0.8
//	adaserve-sim -rate-profile spike -live
//	adaserve-sim -replicas 4 -router slo-aware -live
//	adaserve-sim -roles 2P2D -router least-loaded
//	adaserve-sim -replicas 4 -autoscale rate-prop -rate-profile diurnal -live
//	adaserve-sim -replicas 2 -adaptive -admission -rate-profile spike -live
//	adaserve-sim -replicas 4 -faults "crash@30+10:r0" -recovery retry+hedge -live
//	adaserve-sim -replicas 3 -router prefix-affinity -prefix -live
//	adaserve-sim -spec internal/experiments/testdata/specs/bursty.spec -replicas 2 -admission
//	adaserve-sim -trace recorded.trace -replicas 2 -live
//	adaserve-sim -rate-profile spike -export spike.trace
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

// resolveFleet validates the -replicas/-roles pair and returns the fleet
// layout: the role list (nil for a colocated fleet) and the replica count.
// -roles implies the count; an explicitly set -replicas that contradicts it
// is rejected rather than silently overridden.
func resolveFleet(replicas int, replicasSet bool, rolesSpec string) ([]cluster.Role, int, error) {
	if replicas < 1 {
		return nil, 0, fmt.Errorf("-replicas %d: need at least 1", replicas)
	}
	if rolesSpec == "" {
		return nil, replicas, nil
	}
	roles, err := cluster.ParseSplit(rolesSpec)
	if err != nil {
		return nil, 0, err
	}
	if replicasSet && replicas != len(roles) {
		return nil, 0, fmt.Errorf("-replicas %d contradicts -roles %s (%d replicas); drop -replicas or make them agree",
			replicas, rolesSpec, len(roles))
	}
	return roles, len(roles), nil
}

// resolveAutoscale validates the -autoscale flag against the fleet size and
// returns the scaling policy (nil when autoscaling is off).
func resolveAutoscale(name string, replicas int) (autoscale.Policy, error) {
	if name == "" {
		return nil, nil
	}
	policy, err := autoscale.NewPolicy(name)
	if err != nil {
		return nil, err
	}
	if replicas < 2 {
		return nil, fmt.Errorf("-autoscale %s needs a capacity fleet: set -replicas > 1 or -roles", name)
	}
	return policy, nil
}

// resolveFaults validates the -faults/-recovery pair and returns the parsed
// fault schedule (empty when -faults is unset) and recovery mode. Both flags
// are validated unconditionally, so a typo fails fast even when the other
// flag would have made it moot.
func resolveFaults(spec, recovery string) (faults.Spec, faults.Recovery, error) {
	s, err := faults.ParseSpec(spec)
	if err != nil {
		return faults.Spec{}, 0, err
	}
	rec, err := faults.ParseRecovery(recovery)
	if err != nil {
		return faults.Spec{}, 0, err
	}
	return s, rec, nil
}

// resolveSource validates the workload-source flag combination: -trace,
// -spec, -rate-profile and -prefix each replace the default closed trace
// replay with their own arrival stream, so at most one may be set.
func resolveSource(tracePath, specPath, profile string, prefix bool) error {
	var set []string
	if tracePath != "" {
		set = append(set, "-trace")
	}
	if specPath != "" {
		set = append(set, "-spec")
	}
	if profile != "" {
		set = append(set, "-rate-profile")
	}
	if prefix {
		set = append(set, "-prefix")
	}
	if len(set) > 1 {
		return fmt.Errorf("%s each pick the workload source; set at most one", strings.Join(set, " and "))
	}
	return nil
}

// loadReplayTrace builds the replay trace behind -trace/-spec (exactly one
// path is non-empty): a trace file parses as-is, a spec file compiles against
// the model setup's class SLOs, with -duration overriding the spec's only
// when explicitly set and the run seed governing compilation.
func loadReplayTrace(tracePath, specPath string, setup experiments.ModelSetup,
	duration float64, durationSet bool, seed uint64) (*trace.Trace, error) {
	if tracePath != "" {
		data, err := os.ReadFile(tracePath)
		if err != nil {
			return nil, err
		}
		tr, err := trace.Parse(string(data))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", tracePath, err)
		}
		return tr, nil
	}
	if !durationSet {
		duration = 0 // keep the spec's
	}
	return trace.CompileFile(specPath, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        duration,
		Seed:            seed,
	})
}

// resolveAdaptive maps the -adaptive/-admission pair to the experiments'
// control configuration of the same shape — nil when both are off,
// tuning-only or admission-only when one is set, the full closed loop when
// both are — so the CLI runs exactly the controllers the sweeps pin.
func resolveAdaptive(tuning, admission bool, duration float64) *adaptive.Config {
	config := "static"
	switch {
	case tuning && admission:
		config = "adaptive+admission"
	case tuning:
		config = "adaptive"
	case admission:
		config = "admission"
	}
	cfg, _ := experiments.AdaptiveConfig(config, duration) // every name above is known
	return cfg
}

func main() {
	system := flag.String("system", "AdaServe", "serving system name (AdaServe, vLLM, Sarathi-Serve, vLLM-Spec (4|6|8), vLLM + Priority, FastServe, VTC, AdaServe (interleaved))")
	model := flag.String("model", "llama", "model setup: llama or qwen")
	rps := flag.Float64("rps", 3.8, "mean request rate (per replica in cluster mode)")
	duration := flag.Float64("duration", 120, "trace duration in seconds")
	urgent := flag.Float64("urgent", 0, "urgent-request proportion (0 = default 60/20/20 mix)")
	sloScale := flag.Float64("slo-scale", 1.0, "scale applied to the most urgent SLO")
	replicas := flag.Int("replicas", 1, "number of serving replicas (cluster mode when > 1)")
	router := flag.String("router", "slo-aware", "cluster router policy: round-robin, least-loaded, slo-aware, prefix-affinity")
	rolesFlag := flag.String("roles", "", "disaggregated role split, e.g. 2P2D (implies the replica count)")
	autoscaleFlag := flag.String("autoscale", "", "elastic-fleet scaling policy: target-queue, rate-prop, slo-feedback (empty: static fleet)")
	adaptiveFlag := flag.Bool("adaptive", false, "close the loop: retune the speculation envelope from rolling acceptance and attainment (AdaServe only)")
	admissionFlag := flag.Bool("admission", false, "arm the overload gate: degrade or reject arrivals a saturated fleet cannot serve")
	prefixFlag := flag.Bool("prefix", false, "enable shared-prefix KV caching and replay the closed-loop multi-turn session workload")
	prefixTier := flag.Int("prefix-tier", experiments.PrefixHostTier, "host offload tier size in KV blocks for -prefix (0: GPU-only, evicted prefixes are dropped)")
	faultsFlag := flag.String("faults", "", `fault schedule, e.g. "crash@30+10:r0; slow@60+20:x4; link@40+30:p0.3; hazard@0.01+10" (cluster mode only)`)
	recoveryFlag := flag.String("recovery", "retry", "fault recovery mode: none, retry, retry+hedge")
	profile := flag.String("rate-profile", "", "open-loop arrival shape: constant, ramp, spike, diurnal (empty: closed trace replay)")
	traceFlag := flag.String("trace", "", "replay a recorded trace file (format v1) as the arrival stream")
	specFlag := flag.String("spec", "", "compile a declarative workload spec into the arrival stream (deterministic per -seed)")
	exportFlag := flag.String("export", "", "write the run's admitted arrival stream to a trace file afterward")
	live := flag.Bool("live", false, "stream periodic rolling-metric snapshots and SLO-violation events")
	snapEvery := flag.Float64("snapshot-every", 5, "simulated seconds between -live snapshots")
	spanOut := flag.String("span-out", "", "write per-request span timelines (Chrome/Perfetto trace-event JSON) to this file")
	metricsOut := flag.String("metrics-out", "", "write run metrics to this file: .json = JSON series, anything else = Prometheus text exposition")
	percentiles := flag.Bool("percentiles", false, "print the per-class latency percentile table after the run")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	// Validate every flag up front: a typo or an out-of-range number exits
	// non-zero with one line, never a panic deep in setup or a NaN report.
	kind, err := experiments.ParseSystem(*system)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := cluster.NewRouter(*router); err != nil {
		log.Fatal(err)
	}
	for _, c := range []struct {
		name, noun string
		v          float64
	}{
		{"rps", "rate", *rps},
		{"duration", "duration", *duration},
		{"slo-scale", "scale", *sloScale},
		{"snapshot-every", "interval", *snapEvery},
	} {
		if err := experiments.CheckPositive(c.name, c.noun, c.v); err != nil {
			log.Fatal(err)
		}
	}
	if !(*urgent >= 0 && *urgent <= 1) {
		log.Fatalf("-urgent %g: need a proportion in [0, 1]", *urgent)
	}
	replicasSet, prefixTierSet, durationSet := false, false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "replicas":
			replicasSet = true
		case "prefix-tier":
			prefixTierSet = true
		case "duration":
			durationSet = true
		}
	})
	if prefixTierSet && !*prefixFlag {
		log.Fatal("-prefix-tier needs -prefix")
	}
	if err := resolveSource(*traceFlag, *specFlag, *profile, *prefixFlag); err != nil {
		log.Fatal(err)
	}
	if *prefixTier < 0 {
		log.Fatalf("-prefix-tier %d: need a non-negative block count", *prefixTier)
	}
	roles, nReplicas, err := resolveFleet(*replicas, replicasSet, *rolesFlag)
	if err != nil {
		log.Fatal(err)
	}
	*replicas = nReplicas
	policy, err := resolveAutoscale(*autoscaleFlag, *replicas)
	if err != nil {
		log.Fatal(err)
	}
	faultSpec, faultRec, err := resolveFaults(*faultsFlag, *recoveryFlag)
	if err != nil {
		log.Fatal(err)
	}
	if !faultSpec.Empty() && *replicas < 2 && len(roles) == 0 {
		log.Fatal("-faults needs a cluster: set -replicas > 1 or -roles")
	}
	setup, err := experiments.ParseModel(*model)
	if err != nil {
		log.Fatal(err)
	}

	// Map the flags onto one run description. The workload is a closed
	// trace replay by default, trace-file replay under -trace (or -spec,
	// which compiles one first), open-loop with the chosen rate shape under
	// -rate-profile, or closed-loop sessions under -prefix.
	spec := experiments.RunSpec{
		Kind: kind, Setup: setup, Seed: *seed, Duration: *duration,
		Build:  experiments.BuildOptions{Prefix: *prefixFlag, PrefixHostBlocks: *prefixTier},
		Router: *router,
	}
	if *replicas > 1 || len(roles) > 0 {
		if roles == nil {
			roles = make([]cluster.Role, *replicas)
		}
		spec.Roles = roles
	}
	if policy != nil {
		spec.InitialActive = 1
		spec.Controls.Policy = policy.Name()
	}
	mix := workload.DefaultMix
	if *urgent > 0 {
		mix = workload.UrgentMix(*urgent)
	}
	totalRPS := *rps * float64(*replicas)
	var banner string
	switch {
	case *traceFlag != "" || *specFlag != "":
		tr, err := loadReplayTrace(*traceFlag, *specFlag, setup, *duration, durationSet, *seed)
		if err != nil {
			log.Fatal(err)
		}
		// Downstream cadences (autoscale, adaptive, fault horizon) follow the
		// replayed trace's span, not the synthetic default.
		spec.Trace, spec.Duration = tr, tr.Duration()
		st := tr.Stats()
		what := "replaying " + *traceFlag
		if *specFlag != "" {
			what = fmt.Sprintf("compiled %s (seed %d)", *specFlag, tr.Header.Seed)
		}
		banner = fmt.Sprintf("trace: %s: %d arrivals over %.1fs (mean %.2f rps, %d classes; -rps ignored)",
			what, st.Arrivals, tr.Duration(), st.MeanRPS, len(tr.Header.Classes))
	case *prefixFlag:
		if spec.Sessions, err = experiments.NewSessions(setup, *seed); err != nil {
			log.Fatal(err)
		}
		banner = fmt.Sprintf("workload: %d multi-turn sessions, closed-loop follow-ups (host tier %d blocks; -duration and -rps ignored)",
			experiments.PrefixTenants, *prefixTier)
	case *profile != "":
		spec.Open = &experiments.OpenLoad{Profile: *profile, RPS: totalRPS, Mix: mix, SLOScale: *sloScale, Salt: 0x51e}
		banner = fmt.Sprintf("workload: open-loop %s profile, mean %.2f rps over %.0fs", *profile, totalRPS, *duration)
	default:
		gen, err := experiments.NewGenerator(setup, mix, *sloScale, mathutil.Hash2(*seed, 0x51e))
		if err != nil {
			log.Fatal(err)
		}
		spec.Requests = gen.FromTimestamps(workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(*seed, 0x7a)), totalRPS, *duration))
		st := workload.StreamStats(spec.Requests)
		banner = fmt.Sprintf("trace: %d requests, %.2f rps, mean prompt %.0f, mean output %.0f",
			st.Requests, st.MeanRPS, st.MeanPrompt, st.MeanOutput)
	}
	spec.Controls.Adaptive = resolveAdaptive(*adaptiveFlag, *admissionFlag, spec.Duration)
	spec.Controls.Faults, spec.Controls.Recovery = faultSpec, faultRec
	if *live || *metricsOut != "" {
		// The metrics exporter's series is the same snapshot grid -live tails.
		spec.SnapshotEvery = *snapEvery
	}
	var exporter *trace.Exporter
	if *exportFlag != "" {
		exporter = trace.NewExporter(trace.ExportOptions{Seed: *seed, Source: "export:adaserve-sim"})
		spec.Observers = append(spec.Observers, exporter)
	}
	var spans *obs.SpanRecorder
	if *spanOut != "" {
		spans = obs.NewSpanRecorder()
		spec.Observers = append(spec.Observers, spans)
	}
	var mexp *obs.MetricsExporter
	if *metricsOut != "" {
		mexp = obs.NewMetricsExporter()
		spec.Observers = append(spec.Observers, mexp)
	}
	run, err := spec.Lower()
	if err != nil {
		log.Fatal(err)
	}
	cl, _ := run.Backend().(*cluster.Cluster)
	sys := run.Backend().Instances()[0].System()

	fmt.Printf("model: %s (baseline %.1f ms/token)\n", setup.Name, 1e3*setup.BaselineLatency())
	fmt.Println(banner)
	if !faultSpec.Empty() {
		fmt.Printf("faults: %s [recovery %s]\n", faultSpec, faultRec)
	}
	if policy != nil {
		fmt.Printf("autoscale: %s policy over a %d-replica capacity fleet (cold start %.1fs, decisions every %.1fs)\n",
			policy.Name(), *replicas, experiments.AutoscaleColdStart(spec.Duration), experiments.AutoscaleInterval(spec.Duration))
	}
	if cfg := spec.Controls.Adaptive; cfg != nil {
		parts := ""
		if *adaptiveFlag {
			parts = "speculation tuning"
		}
		if *admissionFlag {
			if parts != "" {
				parts += " + "
			}
			parts += "overload admission"
		}
		fmt.Printf("adaptive: %s (retune every %.1fs, %.1fs windows)\n",
			parts, cfg.Interval, cfg.Window)
	}
	if *live {
		fmt.Println()
		pfx := prefixStatsFn(*prefixFlag, cl, sys)
		run.Subscribe(serve.ObserverFunc(func(ev serve.Event) { liveEvent(ev, cl, pfx) }))
	}
	out, err := run.Run()
	if err != nil {
		log.Fatal(err)
	}
	if exporter != nil {
		tr, err := exporter.Trace()
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*exportFlag, []byte(tr.Format()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("exported %d admitted arrivals to %s\n", len(tr.Arrivals), *exportFlag)
	}

	sum := out.Summary.Aggregate
	if cl != nil {
		printCluster(out.Fleet, *replicas)
	} else {
		printSingle(sum, out.Result)
		if adm := out.Summary.Admission; adm != nil {
			fmt.Println(adm.String())
		}
		if pfx := prefixStatsFn(*prefixFlag, nil, sys); pfx != nil {
			fmt.Println(pfx().String())
		}
	}
	finishObs(spans, *spanOut, mexp, *metricsOut, *percentiles, sum)
}

// finishObs renders the observability outputs after the run: the Perfetto
// span-timeline file (-span-out), the metrics export in the format the
// -metrics-out extension selects, and the -percentiles latency table.
func finishObs(spans *obs.SpanRecorder, spanPath string, mexp *obs.MetricsExporter, metricsPath string, percentiles bool, sum *metrics.Summary) {
	if spans != nil {
		var buf bytes.Buffer
		if err := spans.WriteTrace(&buf); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(spanPath, buf.Bytes(), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d span timelines to %s (load in ui.perfetto.dev or chrome://tracing)\n",
			len(spans.Timelines()), spanPath)
	}
	if mexp != nil {
		var buf bytes.Buffer
		var err error
		if strings.HasSuffix(metricsPath, ".json") {
			err = mexp.WriteJSON(&buf, sum)
		} else {
			err = mexp.WritePrometheus(&buf, sum)
		}
		if err == nil {
			err = os.WriteFile(metricsPath, buf.Bytes(), 0o644)
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d metric snapshots + terminal summary to %s\n", len(mexp.Snapshots()), metricsPath)
	}
	if percentiles {
		fmt.Println()
		fmt.Print(obs.PercentileTable(sum))
	}
}

// prefixStatsFn returns a poller that sums the live prefix-cache counters
// across the backend's replicas into a printable summary, or nil when -prefix
// is off.
func prefixStatsFn(on bool, cl *cluster.Cluster, sys sched.System) func() *metrics.PrefixSummary {
	if !on {
		return nil
	}
	return func() *metrics.PrefixSummary {
		systems := []sched.System{sys}
		if cl != nil {
			systems = systems[:0]
			for _, rep := range cl.Replicas() {
				systems = append(systems, rep.System())
			}
		}
		if tot := cluster.PrefixSummary(systems...); tot != nil {
			return tot
		}
		return &metrics.PrefixSummary{}
	}
}

// liveEvent renders the -live stream: one line per rolling-metric snapshot
// (with the fleet size when the cluster is elastic, plus a [pfx] cache line
// when -prefix is on), SLO violations the moment they become certain, and
// every autoscaler action.
func liveEvent(ev serve.Event, cl *cluster.Cluster, pfx func() *metrics.PrefixSummary) {
	switch e := ev.(type) {
	case serve.Snapshot:
		s := e.Stats
		tag := "live"
		if e.Final {
			tag = "done"
		}
		fmt.Printf("[%s t=%7.1fs] run %3d wait %3d | finished %5d/%5d | attain %5.1f%% (win %5.1f%%) | goodput %7.1f tok/s (win %7.1f)",
			tag, e.Time, s.Running, s.Queued, s.Finished, s.Admitted,
			100*s.Attainment(), 100*s.WindowAttainment(), s.Goodput, s.WindowGoodput)
		if s.WindowTPOTTail.Count > 0 {
			fmt.Printf(" | p99 TPOT %5.1fms (win %5.1fms)", 1e3*s.TPOTTail.P99, 1e3*s.WindowTPOTTail.P99)
		}
		if cl != nil && cl.Elastic() {
			fmt.Printf(" | %s", fleetString(cl))
		}
		for cat := 0; cat < request.NumCategories; cat++ {
			c := s.PerClass[cat]
			if c.WindowFinished > 0 {
				fmt.Printf(" | %s %.0f%%", request.Category(cat), 100*c.WindowAttainment())
			}
		}
		fmt.Println()
		if pfx != nil {
			fmt.Printf("[pfx  t=%7.1fs] %s\n", e.Time, pfx())
		}
	case serve.SLOViolated:
		fmt.Printf("[viol t=%7.1fs] request %d (%s) missed its %s SLO\n",
			e.Time, e.Req.ID, e.Req.Category, e.Kind)
	case serve.RequestRejected:
		fmt.Printf("[admt t=%7.1fs] request %d (%s) rejected: %s\n",
			e.Time, e.Req.ID, e.Req.Category, e.Reason)
	case serve.RequestDegraded:
		fmt.Printf("[admt t=%7.1fs] request %d degraded %s -> %s: %s\n",
			e.Time, e.Req.ID, e.From, e.To, e.Reason)
	case serve.ScaleUp:
		fmt.Printf("[scal t=%7.1fs] +replica %d (%s): %s -> fleet %d\n",
			e.Time, e.Action.Instance, e.Action.Role, e.Action.Reason, e.Action.Fleet)
	case serve.ScaleDown:
		fmt.Printf("[scal t=%7.1fs] -replica %d (%s): %s -> fleet %d\n",
			e.Time, e.Action.Instance, e.Action.Role, e.Action.Reason, e.Action.Fleet)
	case serve.ReplicaFailed:
		fmt.Printf("[falt t=%7.1fs] replica %d crashed (%s), %d resident requests frozen\n",
			e.Time, e.Instance, e.Reason, e.Lost)
	case serve.ReplicaRecovered:
		fmt.Printf("[falt t=%7.1fs] replica %d recovered after %.1fs down\n",
			e.Time, e.Instance, e.Downtime)
	case serve.RequestRetried:
		fmt.Printf("[falt t=%7.1fs] request %d retried (attempt %d) on replica %d\n",
			e.Time, e.Req.ID, e.Attempt, e.Instance)
	case serve.RequestHedged:
		fmt.Printf("[falt t=%7.1fs] request %d hedged onto replica %d\n",
			e.Time, e.Req.ID, e.Instance)
	case serve.RequestMigrated:
		fmt.Printf("[mig  t=%7.1fs] request %d KV %d -> %d (%.1f MB in %.1f ms)\n",
			e.Time, e.Req.ID, e.From, e.To, e.Bytes/1e6, 1e3*(e.Time-e.Depart))
	}
}

// fleetString renders an elastic fleet's occupancy, e.g. "fleet 3/4 (+1 prov)".
func fleetString(cl *cluster.Cluster) string {
	active, prov, draining, failed := 0, 0, 0, 0
	for _, rep := range cl.Replicas() {
		switch rep.State() {
		case cluster.StateActive:
			active++
		case cluster.StateProvisioning:
			prov++
		case cluster.StateDraining:
			draining++
		case cluster.StateFailed:
			failed++
		}
	}
	s := fmt.Sprintf("fleet %d/%d", active, cl.Size())
	if prov > 0 {
		s += fmt.Sprintf(" (+%d prov)", prov)
	}
	if draining > 0 {
		s += fmt.Sprintf(" (-%d drain)", draining)
	}
	if failed > 0 {
		s += fmt.Sprintf(" (%d failed)", failed)
	}
	return s
}

func printSingle(s *metrics.Summary, rr *serve.Result) {
	fmt.Println()
	fmt.Println(s)
	fmt.Printf("\nthroughput %.1f tok/s | mean TTFT %.2fs | p50 TPOT %.1fms | p99 TPOT %.1fms\n",
		s.Throughput, s.MeanTTFT, 1e3*s.P50TPOT(), 1e3*s.P99TPOT())
	b := s.Breakdown
	fmt.Printf("breakdown: scheduling %.2f%%, speculation %.1f%%, verification %.1f%%, prefill %.1f%%\n",
		100*b.Scheduling/b.Total(), 100*b.Speculation/b.Total(),
		100*b.Verification/b.Total(), 100*b.Prefill/b.Total())
	fmt.Printf("simulated: %.1fs over %d iterations\n", rr.EndTime, rr.Iterations)
}

func printCluster(res *cluster.Result, n int) {
	s := res.Summary
	fmt.Println()
	fmt.Println(s)
	fmt.Printf("\ncluster: attainment %.1f%% | TTFT attainment %.1f%% | goodput %.1f tok/s | request imbalance %.2f\n",
		100*s.Attainment(), 100*s.TTFTAttainment(), s.Goodput(), s.RequestImbalance())
	fmt.Printf("throughput %.1f tok/s | mean TTFT %.2fs | p50 TPOT %.1fms | p99 TPOT %.1fms\n",
		s.Aggregate.Throughput, s.Aggregate.MeanTTFT, 1e3*s.Aggregate.P50TPOT(), 1e3*s.Aggregate.P99TPOT())
	for _, rs := range s.Roles {
		if rs.Role == "mixed" && s.Transfer.Count == 0 {
			continue
		}
		fmt.Printf("role %-8s x%d: %s, %s\n", rs.Role, rs.Replicas,
			stageStat(rs.PrefillRequests, "prefills", "TTFT attain", rs.TTFTAttainment()),
			stageStat(rs.DecodeRequests, "decodes", "TPOT attain", rs.TPOTAttainment()))
	}
	if s.Transfer.Count > 0 {
		fmt.Printf("KV transfers: %d over %s, %.1f GB total, mean %.1f ms\n",
			s.Transfer.Count, experiments.DisaggLink.Name, s.Transfer.Bytes/1e9, 1e3*s.Transfer.MeanLatency())
	}
	if s.Autoscale != nil && s.Autoscale.Policy != "" {
		fmt.Printf("autoscale %s\n", s.Autoscale)
	}
	if s.Admission != nil {
		fmt.Println(s.Admission.String())
	}
	if s.Prefix != nil {
		fmt.Println(s.Prefix.String())
	}
	if s.Faults != nil {
		fmt.Printf("faults %s\n", s.Faults)
	}
	fmt.Printf("simulated: %.1fs over %d iterations across %d replicas\n", res.EndTime, res.Iterations, n)
}

// stageStat renders one stage of a role row, eliding the attainment of a
// stage the role never served (an empty denominator is not a 0% failure).
func stageStat(n int, noun, metric string, attain float64) string {
	if n == 0 {
		return fmt.Sprintf("%4d %s", n, noun)
	}
	return fmt.Sprintf("%4d %s (%s %.1f%%)", n, noun, metric, 100*attain)
}
