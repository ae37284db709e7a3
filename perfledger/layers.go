package main

import (
	"time"

	"adaserve/internal/sched"
)

type metricDef struct{ name, unit string }

// perLayer lists the per-layer metrics in report order: each layer's share
// of the traced runs' CPU profile, then the seam timings and counts. Counts
// and times are per traced run; percentiles are over every call.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"cpu." + l + "_pct", "%"})
	}
	return append(defs, []metricDef{
		{"sched.iterate.calls", "count"},
		{"sched.iterate.p50_ns", "ns"},
		{"sched.iterate.p99_ns", "ns"},
		{"sched.iterate.self_s", "s"},
		{"sched.idle_iter_pct", "%"},
		{"sched.batch_mean", "seqs"},
		{"sched.tokens_per_iter", "tokens"},
		{"sched.release.calls", "count"},
		{"core.budget_used_pct", "%"},
		{"engine.accepted_per_step", "tokens"},
		{"serve.run.self_s", "s"},
		{"serve.run.self_pct", "%"},
		{"serve.events", "count"},
		{"cluster.dispatch.calls", "count"},
		{"cluster.dispatch.self_s", "s"},
		{"cluster.dispatch.p99_ns", "ns"},
		{"cluster.route.calls", "count"},
		{"cluster.route.self_s", "s"},
		{"cluster.route.p50_ns", "ns"},
		{"cluster.route.p99_ns", "ns"},
		{"cluster.after_iterate.self_s", "s"},
		{"cluster.request_imbalance", "ratio"},
		{"kvcache.probe.calls", "count"},
		{"kvcache.probe.total_pct", "%"},
		{"kvcache.prefix_hit_pct", "%"},
		{"kvcache.evictions", "count"},
		{"faults.self_pct", "%"},
		{"autoscale.self_pct", "%"},
		{"adaptive.self_pct", "%"},
		{"obs.on_event.self_pct", "%"},
		{"metrics.results_s", "s"},
		{"workload.source.calls", "count"},
		{"workload.source.self_s", "s"},
		{"trace.runs", "count"},
		{"trace.overhead_pct", "%"},
	}...)
}

// behaviour sums what the per-layer table reads from runs' results. It is
// small, so holding it keeps none of their simulations alive.
type behaviour struct {
	runs               int
	budget, budgetUsed int
	acceptedPerStep    float64
	requestImbalance   float64
	prefixHitPct       float64
	prefixEvictions    int
	events             int
}

func (b *behaviour) add(o *outcome) {
	b.runs++
	b.acceptedPerStep += o.sum.Aggregate.MeanAcceptedPerStep
	b.requestImbalance += o.sum.RequestImbalance()
	b.events += o.rr.Events
	for _, sys := range o.systems {
		if a, ok := sys.(*sched.AdaServe); ok {
			b.budget += a.Debug.SumBudget
			b.budgetUsed += a.Debug.SumBudgetUsed
		}
	}
	if p := o.sum.Prefix; p != nil {
		b.prefixHitPct += 100 * p.HitRate()
		b.prefixEvictions += p.Evictions
	}
}

// layerMetrics turns the tracer's seams over runs traced runs, their
// behaviour and the folded CPU shares into the per-layer table. Counts,
// times and behaviour are means per traced run.
func layerMetrics(t *tracer, runs int, seen behaviour, shares map[string]float64, overheadPct float64) map[string]value {
	per := 1 / float64(runs)
	mean := func(sum float64) float64 { return sum / float64(max(seen.runs, 1)) }
	calls := func(id int) float64 { return float64(t.seams[id].calls) * per }
	self := func(id int) float64 { return t.seams[id].self.Seconds() * per }
	pctNs := func(id int, p float64) float64 {
		if t.seams[id].calls == 0 {
			return 0
		}
		return t.seams[id].perCall.Percentile(p) * float64(time.Second)
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	iters := float64(t.seams[seamIterate].calls)
	busy := iters - float64(t.idleIters)
	run := t.seams[seamRun]
	// The hooks and the prefix probe run inside the serving loop, and on
	// most workloads never: as shares of the loop's time they read 0 there,
	// where a time would read the same 0 s on every run.
	runShare := func(d time.Duration) float64 { return 100 * ratio(d.Seconds(), run.total.Seconds()) }

	vals := map[string]float64{
		"sched.iterate.calls":          calls(seamIterate),
		"sched.iterate.p50_ns":         pctNs(seamIterate, 50),
		"sched.iterate.p99_ns":         pctNs(seamIterate, 99),
		"sched.iterate.self_s":         self(seamIterate),
		"sched.idle_iter_pct":          100 * ratio(float64(t.idleIters), iters),
		"sched.batch_mean":             ratio(float64(t.runningSum), busy),
		"sched.tokens_per_iter":        ratio(float64(t.tokens), busy),
		"sched.release.calls":          calls(seamRelease),
		"core.budget_used_pct":         100 * ratio(float64(seen.budgetUsed), float64(seen.budget)),
		"engine.accepted_per_step":     mean(seen.acceptedPerStep),
		"serve.run.self_s":             self(seamRun),
		"serve.run.self_pct":           runShare(run.self),
		"serve.events":                 mean(float64(seen.events)),
		"cluster.dispatch.calls":       calls(seamDispatch),
		"cluster.dispatch.self_s":      self(seamDispatch),
		"cluster.dispatch.p99_ns":      pctNs(seamDispatch, 99),
		"cluster.route.calls":          calls(seamRoute),
		"cluster.route.self_s":         self(seamRoute),
		"cluster.route.p50_ns":         pctNs(seamRoute, 50),
		"cluster.route.p99_ns":         pctNs(seamRoute, 99),
		"cluster.after_iterate.self_s": self(seamAfterIterate),
		"cluster.request_imbalance":    mean(seen.requestImbalance),
		"kvcache.probe.calls":          calls(seamProbe),
		"kvcache.probe.total_pct":      runShare(t.seams[seamProbe].total),
		"kvcache.prefix_hit_pct":       mean(seen.prefixHitPct),
		"kvcache.evictions":            mean(float64(seen.prefixEvictions)),
		"faults.self_pct":              runShare(t.seams[seamFaults].self),
		"autoscale.self_pct":           runShare(t.seams[seamAutoscale].self),
		"adaptive.self_pct":            runShare(t.seams[seamAdaptive].self),
		"obs.on_event.self_pct":        runShare(t.seams[seamObs].self),
		"metrics.results_s":            t.seams[seamResults].total.Seconds() * per,
		"workload.source.calls":        calls(seamSource),
		"workload.source.self_s":       self(seamSource),
		"trace.runs":                   float64(runs),
		"trace.overhead_pct":           overheadPct,
	}
	for _, l := range layers {
		vals["cpu."+l+"_pct"] = shares[l]
	}
	out := make(map[string]value, len(vals))
	for _, m := range perLayer() {
		out[m.name] = value{Unit: m.unit, Value: vals[m.name]}
	}
	return out
}
