package experiments

import (
	"reflect"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/faults"
	"adaserve/internal/mathutil"
	"adaserve/internal/metrics"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// faultOpts is the chaos grid's fixed-seed configuration: long enough that
// the crash window strands real work and the straggler backlog forces
// hedging, short enough for CI.
func faultOpts(parallel int) RunOptions {
	return RunOptions{Seed: 1, Duration: 24, Parallel: parallel}
}

func faultPoint(t *testing.T, pts []Cell, scenario, recovery string) *metrics.ClusterSummary {
	t.Helper()
	for _, p := range pts {
		if p.scenario == scenario && p.recovery == recovery {
			return p.Sum
		}
	}
	t.Fatalf("no %s/%s cell in sweep", scenario, recovery)
	return nil
}

// TestFaultRecoveryHeadlines pins the chaos sweep's qualitative claims: under
// a replica crash, retry+failover beats no-recovery on both goodput and SLO
// attainment (lost requests are violations recovery buys back); and hedged
// re-dispatch bounds the worst-case TTFT that retry alone cannot touch — in
// the straggler scenario retry never even triggers, since a slow replica is
// alive and timeout detection stays quiet.
func TestFaultRecoveryHeadlines(t *testing.T) {
	pts, err := Faults(Llama70B(), faultOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FaultsTable.Render(pts))

	none := faultPoint(t, pts, "crash", "none")
	retry := faultPoint(t, pts, "crash", "retry")
	if retry.Goodput() <= none.Goodput() {
		t.Errorf("crash: retry goodput %.2f does not beat no-recovery %.2f", retry.Goodput(), none.Goodput())
	}
	if retry.Attainment() <= none.Attainment() {
		t.Errorf("crash: retry attainment %.4f does not beat no-recovery %.4f", retry.Attainment(), none.Attainment())
	}
	if none.Faults.LostRequests == 0 || retry.Faults.Retried == 0 {
		t.Errorf("crash window stranded no work: lost=%d retried=%d", none.Faults.LostRequests, retry.Faults.Retried)
	}
	if retry.Faults.MTTR <= 0 {
		t.Errorf("crash repaired but MTTR %.2f", retry.Faults.MTTR)
	}

	slow := faultPoint(t, pts, "straggler", "retry")
	hedge := faultPoint(t, pts, "straggler", "retry+hedge")
	if hedge.Aggregate.MaxTTFT >= slow.Aggregate.MaxTTFT {
		t.Errorf("straggler: hedging maxTTFT %.2f does not beat retry-only %.2f",
			hedge.Aggregate.MaxTTFT, slow.Aggregate.MaxTTFT)
	}
	if hedge.Faults.Hedged == 0 {
		t.Error("straggler cell never hedged")
	}
	if slow.Faults.Retried != 0 {
		t.Errorf("straggler triggered %d retries; a live replica must not trip timeout detection", slow.Faults.Retried)
	}

	link := faultPoint(t, pts, "link", "none")
	if link.Faults.TransferFallbacks == 0 {
		t.Error("link scenario caused no transfer fallbacks")
	}
	if link.Aggregate.Finished == 0 || link.Aggregate.Finished != link.Aggregate.Requests {
		t.Errorf("link scenario: %d/%d finished — recompute fallback must not strand requests",
			link.Aggregate.Finished, link.Aggregate.Requests)
	}
}

// TestParallelFaultsDeterministic extends the runner guarantee to faulted
// runs: the chaos grid at -parallel 1 and -parallel 8 must be identical —
// fault schedules are pure functions of the seed, never of worker timing.
func TestParallelFaultsDeterministic(t *testing.T) {
	seq, err := Faults(Llama70B(), faultOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Faults(Llama70B(), faultOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("cell count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].scenario != par[i].scenario || seq[i].recovery != par[i].recovery ||
			!reflect.DeepEqual(seq[i].Sum, par[i].Sum) {
			t.Fatalf("cell %s/%s differs between -parallel 1 and 8", seq[i].scenario, seq[i].recovery)
		}
	}
}

// TestFaultSpecRejectsUnknownScenario covers the sweep's input validation.
func TestFaultSpecRejectsUnknownScenario(t *testing.T) {
	if _, err := faultSpec("meteor", 24); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := faultCell(Llama70B(), "crash", "prayer", faultOpts(1)); err == nil {
		t.Fatal("unknown recovery accepted")
	}
}

// TestGoldenFaultsGrid pins the chaos sweep byte-for-byte: every injected
// fault instant, every detection, retry, hedge race and autoscale-driven
// replacement is a pure function of the fixed seed. A drifted lost/retried/
// hedged count is a semantic change to the failure or recovery law and must
// be justified alongside a fixture regeneration.
func TestGoldenFaultsGrid(t *testing.T) {
	pts, err := Faults(Llama70B(), faultOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, p := range pts {
		s := p.Sum
		row := goldenRow{
			Experiment: "faults", Scenario: p.scenario, Recovery: p.recovery,
			Requests: s.Aggregate.Requests, Finished: s.Aggregate.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput(), Throughput: s.Aggregate.Throughput,
			MeanAccepted: s.Aggregate.MeanAcceptedPerStep,
			P50TPOT:      s.Aggregate.P50TPOT(), P99TPOT: s.Aggregate.P99TPOT(), P999TPOT: s.Aggregate.P999TPOT(),
			MaxTTFT: s.Aggregate.MaxTTFT,
		}
		if f := s.Faults; f != nil {
			row.Lost, row.Retried, row.Dropped = f.LostRequests, f.Retried, f.Dropped
			row.Hedged, row.Fallbacks = f.Hedged, f.TransferFallbacks
			row.MTTR = f.MTTR
		}
		rows = append(rows, row)
	}
	compareGolden(t, "faults.json", rows)
}

// TestFaultsWithSpec runs the custom-schedule path (-faults override): every
// recovery mode replays the caller's spec as one "custom" scenario on the
// elastic chaos fleet, at the headroom operating point.
func TestFaultsWithSpec(t *testing.T) {
	spec, err := faults.ParseSpec("crash@3+2:r0")
	if err != nil {
		t.Fatal(err)
	}
	opts := faultOpts(3)
	opts.Duration = 12
	pts, err := FaultsWithSpec(Llama70B(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(faultRecoveries()) {
		t.Fatalf("%d points, want one per recovery mode", len(pts))
	}
	for i, p := range pts {
		if p.scenario != "custom" || p.recovery != faultRecoveries()[i] {
			t.Fatalf("point %d = (%s, %s), want custom scenario in recovery order", i, p.scenario, p.recovery)
		}
		if p.Sum.Faults == nil || p.Sum.Faults.Crashes != 1 {
			t.Fatalf("recovery %s did not replay the custom crash: %+v", p.recovery, p.Sum.Faults)
		}
	}
}

// TestWholeFleetOutageHoldsArrivals pins the whole-fleet outage of
// `adaserve-sim -duration 120 -replicas 2 -faults hazard@0.1+10`, which once
// aborted with "cluster: no active prefill-capable replica": an arrival while
// every replica is down is held and dispatched when the first replica is
// repaired, and every offered request is accounted exactly once — offered =
// finished + rejected + dropped.
func TestWholeFleetOutageHoldsArrivals(t *testing.T) {
	setup := Llama70B()
	gen, err := NewGenerator(setup, workload.DefaultMix, 1, mathutil.Hash2(1, 0x51e))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.ParseSpec("hazard@0.1+10")
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Kind: SysAdaServe, Setup: setup, Seed: 1, Duration: 120, Router: "slo-aware",
		Roles:    make([]cluster.Role, 2),
		Requests: gen.FromTimestamps(workload.RealTrace(mathutil.NewRNG(mathutil.Hash2(1, 0x7a)), 2*3.8, 120)),
	}
	spec.Controls.Faults, spec.Controls.Recovery = fs, faults.RecoveryRetry
	held := 0
	spec.Observers = append(spec.Observers, serve.ObserverFunc(func(ev serve.Event) {
		if a, ok := ev.(serve.RequestAdmitted); ok && a.Time > a.Req.ArrivalTime {
			held++
		}
	}))
	out, err := spec.Run()
	if err != nil {
		t.Fatalf("whole-fleet outage aborted the run: %v", err)
	}
	if held == 0 {
		t.Fatal("no arrival was held: the schedule no longer takes the whole fleet down")
	}
	agg := out.Summary.Aggregate
	offered, dropped := len(spec.Requests), out.Summary.Faults.Dropped
	if agg.Requests != offered || offered != agg.Finished+dropped {
		t.Fatalf("offered %d (summarized %d) != finished %d + dropped %d",
			offered, agg.Requests, agg.Finished, dropped)
	}
}
