package experiments

import (
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/adaptive"
	"adaserve/internal/cluster"
	"adaserve/internal/mathutil"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// adaptiveOpts mirrors autoscaleOpts: long enough for the spike's burst to
// saturate the fleet and the controller to calibrate, short enough for CI.
func adaptiveOpts(parallel int) RunOptions {
	return RunOptions{Seed: 1, Duration: 24, Parallel: parallel}
}

// TestAdaptiveControlDeterministic is the flash-crowd sweep's determinism
// guarantee (identical at any worker count) and its reason to exist: the
// closed loop with admission must beat static AdaServe on goodput under the
// burst while bounding the worst-case TTFT the backlog would otherwise grow
// without limit.
func TestAdaptiveControlDeterministic(t *testing.T) {
	setup := Llama70B()
	seq, err := AdaptiveControl(setup, adaptiveOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := AdaptiveControl(setup, adaptiveOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].config != par[i].config || seq[i].profile != par[i].profile {
			t.Fatalf("point %d coordinates differ: %+v vs %+v", i, seq[i], par[i])
		}
		if !reflect.DeepEqual(seq[i].Sum, par[i].Sum) {
			t.Fatalf("point %d (%s/%s): summaries differ between -parallel 1 and 8",
				i, seq[i].config, seq[i].profile)
		}
	}
	t.Logf("\n%s", AdaptiveTable.Render(seq))

	byConfig := map[string]*Cell{}
	for i := range seq {
		if seq[i].profile == "spike" {
			byConfig[seq[i].config] = &seq[i]
		}
	}
	static, adm := byConfig["static"], byConfig["adaptive+admission"]
	if static == nil || adm == nil {
		t.Fatal("sweep missing static or adaptive+admission cell")
	}
	if static.Sum.Admission != nil {
		t.Error("static cell must not carry an admission summary")
	}
	if adm.Sum.Admission == nil {
		t.Fatal("adaptive+admission cell must carry an admission summary")
	}
	if got := adm.Sum.Admission; got.Degraded+got.Rejected == 0 {
		t.Errorf("the spike never tripped the gate: %+v", got)
	}
	if adm.Sum.Goodput() <= static.Sum.Goodput() {
		t.Errorf("adaptive+admission goodput %.1f did not beat static %.1f",
			adm.Sum.Goodput(), static.Sum.Goodput())
	}
	if adm.Sum.Aggregate.MaxTTFT >= static.Sum.Aggregate.MaxTTFT {
		t.Errorf("admission did not bound worst-case TTFT: %.2fs vs static %.2fs",
			adm.Sum.Aggregate.MaxTTFT, static.Sum.Aggregate.MaxTTFT)
	}
}

// TestAdmissionEventStream is the event-stream consistency contract for the
// gate: every RequestRejected/RequestDegraded fires exactly once per
// request, in dense seq order among all events, consistent with the
// terminal AdmissionSummary; rejected requests never reach a pool, and
// degraded requests never speculate again — every verification step after
// the degrade commits exactly one token.
func TestAdmissionEventStream(t *testing.T) {
	setup := Llama70B()
	opts := adaptiveOpts(1)
	opts.fill()
	rate, maxRate, err := workload.RateProfile("spike", AdaptiveMeanRPS(setup), opts.Duration)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(setup, workload.DefaultMix, 1.0, mathutil.Hash2(opts.Seed, 0xada))
	if err != nil {
		t.Fatal(err)
	}
	src, err := serve.NewOpenLoop(gen, mathutil.NewRNG(mathutil.Hash2(opts.Seed, 0x7a)), rate, maxRate, opts.Duration)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildCluster(SysAdaServe, setup, make([]cluster.Role, AdaptiveFleet), AdaptiveRouter, nil, BuildOptions{Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := AdaptiveConfig("adaptive+admission", opts.Duration)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := adaptive.New(cl, *cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.NewServer(cl, serve.Options{Adaptive: ctrl})
	if err != nil {
		t.Fatal(err)
	}

	lastSeq := -1
	rejected := map[int]int{}
	degraded := map[int]int{}
	admitted := map[int]int{}
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		if ev.EventSeq() != lastSeq+1 {
			t.Fatalf("seq gap: %d after %d (%T)", ev.EventSeq(), lastSeq, ev)
		}
		lastSeq = ev.EventSeq()
		switch e := ev.(type) {
		case serve.RequestRejected:
			rejected[e.Req.ID]++
			if e.Reason == "" {
				t.Errorf("request %d rejected without a reason", e.Req.ID)
			}
		case serve.RequestDegraded:
			degraded[e.Req.ID]++
			if e.From != e.Req.DegradedFrom || e.To != e.Req.Category || !e.Req.NoSpec {
				t.Errorf("degrade event inconsistent with request state: %+v vs %+v", e, e.Req)
			}
			if e.Reason == "" {
				t.Errorf("request %d degraded without a reason", e.Req.ID)
			}
		case serve.RequestAdmitted:
			admitted[e.Req.ID]++
			if rejected[e.Req.ID] > 0 {
				t.Errorf("rejected request %d was dispatched anyway", e.Req.ID)
			}
		case serve.SLOViolated:
			if e.Kind == serve.ViolationTTFT && degraded[e.Req.ID] > 0 {
				t.Errorf("degraded request %d (waived TTFT) violated a TTFT SLO", e.Req.ID)
			}
		case serve.TokensCommitted:
			if degraded[e.Req.ID] > 0 && e.Tokens > 1 {
				t.Errorf("degraded request %d committed %d tokens in one step — it speculated",
					e.Req.ID, e.Tokens)
			}
		case serve.RequestFinished:
			if degraded[e.Req.ID] > 0 && e.Req.AcceptedTokens != e.Req.VerifySteps {
				t.Errorf("degraded request %d: %d tokens over %d steps — speculation gain without speculation",
					e.Req.ID, e.Req.AcceptedTokens, e.Req.VerifySteps)
			}
		}
	}))
	if _, err := srv.Run(src); err != nil {
		t.Fatal(err)
	}

	for id, n := range rejected {
		if n != 1 {
			t.Errorf("request %d rejected %d times", id, n)
		}
		if admitted[id] != 0 {
			t.Errorf("request %d both rejected and admitted", id)
		}
	}
	for id, n := range degraded {
		if n != 1 {
			t.Errorf("request %d degraded %d times", id, n)
		}
		if admitted[id] != 1 {
			t.Errorf("degraded request %d admitted %d times, want exactly 1", id, admitted[id])
		}
	}
	sum := ctrl.Summary()
	if sum.Rejected != len(rejected) || sum.Degraded != len(degraded) {
		t.Errorf("AdmissionSummary %d rejected / %d degraded, event stream saw %d / %d",
			sum.Rejected, sum.Degraded, len(rejected), len(degraded))
	}
	if sum.Offered != sum.Admitted+sum.Degraded+sum.Rejected {
		t.Errorf("AdmissionSummary does not partition the offered load: %+v", sum)
	}
	if got := sum.Admitted + sum.Degraded; got != len(admitted) {
		t.Errorf("%d admitted per summary, %d RequestAdmitted events", got, len(admitted))
	}
	if len(rejected) == 0 || len(degraded) == 0 {
		t.Fatalf("spike tripped neither gate action (%d rejected, %d degraded) — the test exercised nothing",
			len(rejected), len(degraded))
	}
}

// TestAdaptiveConfigNames is the control-configuration table: every name
// resolves to the controller halves it says, on the duration-proportional
// cadence, and an unknown name fails with an error listing the valid ones.
func TestAdaptiveConfigNames(t *testing.T) {
	const duration = 120
	cases := []struct {
		name                  string
		wantNil               bool
		noTuning, noAdmission bool
	}{
		{name: "static", wantNil: true},
		{name: "adaptive", noAdmission: true},
		{name: "admission", noTuning: true},
		{name: "adaptive+admission"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := AdaptiveConfig(c.name, duration)
			if err != nil {
				t.Fatal(err)
			}
			if (cfg == nil) != c.wantNil {
				t.Fatalf("cfg = %+v, wantNil = %v", cfg, c.wantNil)
			}
			if cfg == nil {
				return
			}
			if cfg.DisableTuning != c.noTuning || cfg.DisableAdmission != c.noAdmission {
				t.Fatalf("cfg = %+v, want DisableTuning=%v DisableAdmission=%v", cfg, c.noTuning, c.noAdmission)
			}
			if cfg.Interval != adaptiveInterval(duration) || cfg.Window != AutoscaleWindow(duration) {
				t.Fatalf("cfg timing %+v does not follow the experiment cadence", cfg)
			}
		})
	}
	_, err := AdaptiveConfig("chaos", duration)
	if err == nil {
		t.Fatal("unknown config accepted")
	}
	for _, name := range []string{`"chaos"`, "static", "adaptive+admission", "admission"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not mention %s", err, name)
		}
	}
}
