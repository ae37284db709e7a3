package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/metrics"
	"adaserve/internal/obs"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// TestResolveFleet is the -replicas/-roles validation table: -roles implies
// the count, and an explicitly set -replicas that contradicts it fails with
// a one-line error instead of being silently overridden.
func TestResolveFleet(t *testing.T) {
	cases := []struct {
		name        string
		replicas    int
		replicasSet bool
		roles       string
		wantN       int
		wantRoles   int
		wantErr     string
	}{
		{name: "default single", replicas: 1, wantN: 1},
		{name: "explicit cluster", replicas: 4, replicasSet: true, wantN: 4},
		{name: "zero replicas", replicas: 0, replicasSet: true, wantErr: "need at least 1"},
		{name: "roles imply count", replicas: 1, roles: "2P2D", wantN: 4, wantRoles: 4},
		{name: "agreeing replicas", replicas: 4, replicasSet: true, roles: "2P2D", wantN: 4, wantRoles: 4},
		{name: "contradicting replicas", replicas: 3, replicasSet: true, roles: "2P2D", wantErr: "contradicts"},
		{name: "contradicting mixed split", replicas: 2, replicasSet: true, roles: "mixed4", wantErr: "contradicts"},
		{name: "bad split", replicas: 1, roles: "2X2D", wantErr: "bad role split"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			roles, n, err := resolveFleet(c.replicas, c.replicasSet, c.roles)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if n != c.wantN || len(roles) != c.wantRoles {
				t.Fatalf("got %d replicas, %d roles; want %d, %d", n, len(roles), c.wantN, c.wantRoles)
			}
		})
	}
}

// TestResolveSource is the workload-source validation table: -trace, -spec,
// -rate-profile and -prefix each replace the default arrival stream, so any
// pair of them fails with a one-line error naming the clashing flags.
func TestResolveSource(t *testing.T) {
	cases := []struct {
		name          string
		tracef, specf string
		profile       string
		prefix        bool
		wantErr       string
	}{
		{name: "default closed replay"},
		{name: "trace only", tracef: "x.trace"},
		{name: "spec only", specf: "x.spec"},
		{name: "profile only", profile: "spike"},
		{name: "prefix only", prefix: true},
		{name: "trace and spec", tracef: "x", specf: "y", wantErr: "-trace and -spec"},
		{name: "spec and profile", specf: "y", profile: "spike", wantErr: "-spec and -rate-profile"},
		{name: "trace and prefix", tracef: "x", prefix: true, wantErr: "-trace and -prefix"},
		{name: "profile and prefix", profile: "spike", prefix: true, wantErr: "-rate-profile and -prefix"},
		{name: "all four", tracef: "x", specf: "y", profile: "spike", prefix: true, wantErr: "at most one"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := resolveSource(c.tracef, c.specf, c.profile, c.prefix)
			if c.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Fatalf("error is not one line: %q", err)
			}
		})
	}
}

// TestLoadReplayTrace covers both halves of the -trace/-spec loader: a spec
// compiles deterministically per seed with -duration overriding the spec's
// only when explicitly set, a trace file parses as-is, and malformed input
// surfaces the parser's line-numbered error prefixed with the path.
func TestLoadReplayTrace(t *testing.T) {
	setup := experiments.Llama70B()
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("tiny.spec", "#adaserve-spec v1\n#meta seed 3\n#meta duration 12\ncohort a class=chat rate=2 arrival=poisson prompt=fixed:32 output=fixed:32\n")

	tr, err := loadReplayTrace("", spec, setup, 120, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Arrivals) == 0 || tr.Duration() > 12 {
		t.Fatalf("spec compile ignored the spec's duration: %d arrivals over %.1fs", len(tr.Arrivals), tr.Duration())
	}
	again, err := loadReplayTrace("", spec, setup, 120, false, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Format() != again.Format() {
		t.Fatal("same seed compiled different traces")
	}
	long, err := loadReplayTrace("", spec, setup, 48, true, 7)
	if err != nil {
		t.Fatal(err)
	}
	if long.Duration() <= 12 {
		t.Fatalf("explicit -duration 48 did not extend the trace: %.1fs", long.Duration())
	}

	// A trace file replays as-is, and byte-identically round-trips through
	// the file form the spec path would have written.
	tracePath := write("tiny.trace", tr.Format())
	parsed, err := loadReplayTrace(tracePath, "", setup, 120, false, 99)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Format() != tr.Format() {
		t.Fatal("trace file replay differs from the compiled original")
	}

	if _, err := loadReplayTrace(write("bad.trace", "nope\n"), "", setup, 120, false, 1); err == nil || !strings.Contains(err.Error(), "bad.trace") {
		t.Fatalf("malformed trace error = %v, want one naming the file", err)
	}
	if _, err := loadReplayTrace("", write("bad.spec", "#adaserve-spec v2\n"), setup, 120, false, 1); err == nil || !strings.Contains(err.Error(), "bad.spec") {
		t.Fatalf("malformed spec error = %v, want one naming the file", err)
	}
}

// TestResolveAdaptive is the -adaptive/-admission mapping table: both off
// means no controller, and each flag disables exactly the other half of the
// closed loop.
func TestResolveAdaptive(t *testing.T) {
	cases := []struct {
		name              string
		tuning, admission bool
		wantNil           bool
		wantNoTuning      bool
		wantNoAdmission   bool
	}{
		{name: "both off", wantNil: true},
		{name: "tuning only", tuning: true, wantNoAdmission: true},
		{name: "admission only", admission: true, wantNoTuning: true},
		{name: "full closed loop", tuning: true, admission: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := resolveAdaptive(c.tuning, c.admission, 120)
			if (cfg == nil) != c.wantNil {
				t.Fatalf("cfg = %+v, wantNil = %v", cfg, c.wantNil)
			}
			if cfg == nil {
				return
			}
			if cfg.DisableTuning != c.wantNoTuning || cfg.DisableAdmission != c.wantNoAdmission {
				t.Fatalf("cfg = %+v, want DisableTuning=%v DisableAdmission=%v",
					cfg, c.wantNoTuning, c.wantNoAdmission)
			}
			if want, _ := experiments.AdaptiveConfig("adaptive+admission", 120); cfg.Interval != want.Interval || cfg.Window != want.Window {
				t.Fatalf("cfg timing %+v does not follow the experiment cadence", cfg)
			}
		})
	}
}

// idleFleet lowers an AdaServe fleet spec with an empty trace, as main
// lowers its own, and returns the built fleet.
func idleFleet(t *testing.T, spec experiments.RunSpec) *cluster.Cluster {
	t.Helper()
	spec.Kind, spec.Setup, spec.Seed = experiments.SysAdaServe, experiments.Llama70B(), 1
	spec.Requests = []*request.Request{}
	run, err := spec.Lower()
	if err != nil {
		t.Fatal(err)
	}
	return run.Backend().(*cluster.Cluster)
}

// TestFleetString covers the -live fleet renderer across lifecycle states.
func TestFleetString(t *testing.T) {
	// A 120 s run's replicas take 6 s to provision.
	cl := idleFleet(t, experiments.RunSpec{Duration: 120, Roles: make([]cluster.Role, 3), Router: "round-robin", InitialActive: 2})
	if got := fleetString(cl); got != "fleet 2/3" {
		t.Fatalf("fleetString = %q, want \"fleet 2/3\"", got)
	}
	var q serve.Queue
	if _, ok := cl.ScaleUp(cluster.RoleMixed, 1.0, &q); !ok {
		t.Fatal("scale-up refused")
	}
	if got := fleetString(cl); got != "fleet 2/3 (+1 prov)" {
		t.Fatalf("fleetString = %q, want provisioning marker", got)
	}
}

// TestStageStat covers the role-row renderer, including the elided
// attainment of a stage the role never served.
func TestStageStat(t *testing.T) {
	if got := stageStat(0, "prefills", "TTFT attain", 0); strings.Contains(got, "%") {
		t.Fatalf("empty stage rendered an attainment: %q", got)
	}
	got := stageStat(12, "decodes", "TPOT attain", 0.925)
	if !strings.Contains(got, "12 decodes") || !strings.Contains(got, "TPOT attain 92.5%") {
		t.Fatalf("stageStat = %q", got)
	}
}

// TestResolveAutoscale is the -autoscale validation table: unknown policies
// and single-replica fleets are rejected up front.
func TestResolveAutoscale(t *testing.T) {
	cases := []struct {
		name     string
		policy   string
		replicas int
		wantNil  bool
		wantErr  string
	}{
		{name: "disabled", policy: "", replicas: 1, wantNil: true},
		{name: "target-queue", policy: "target-queue", replicas: 4},
		{name: "rate-prop", policy: "rate-prop", replicas: 2},
		{name: "slo-feedback", policy: "slo-feedback", replicas: 8},
		{name: "unknown policy", policy: "bogus", replicas: 4, wantErr: "unknown policy"},
		{name: "single replica", policy: "rate-prop", replicas: 1, wantErr: "capacity fleet"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, err := resolveAutoscale(c.policy, c.replicas)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (p == nil) != c.wantNil {
				t.Fatalf("policy = %v, wantNil = %v", p, c.wantNil)
			}
			if p != nil && p.Name() != c.policy {
				t.Fatalf("policy name %q, want %q", p.Name(), c.policy)
			}
		})
	}
}

// TestResolveFaults is the -faults/-recovery validation table: a malformed
// schedule or recovery mode fails with a one-line error before any setup.
func TestResolveFaults(t *testing.T) {
	cases := []struct {
		name     string
		spec     string
		recovery string
		wantErr  string
	}{
		{name: "disabled", spec: "", recovery: "retry"},
		{name: "crash", spec: "crash@30+10:r0", recovery: "none"},
		{name: "full schedule", spec: "crash@30+10:r0; slow@60+20:x4; link@40+30:p0.3", recovery: "retry+hedge"},
		{name: "missing time", spec: "crash", recovery: "retry", wantErr: "faults:"},
		{name: "negative time", spec: "crash@-1", recovery: "retry", wantErr: "faults:"},
		{name: "slow without factor", spec: "slow@1+2", recovery: "retry", wantErr: "faults:"},
		{name: "link per replica", spec: "link@1+2:p0.5:r1", recovery: "retry", wantErr: "faults:"},
		{name: "unknown kind", spec: "flood@1", recovery: "retry", wantErr: "flood"},
		{name: "bad recovery", spec: "crash@30", recovery: "prayer", wantErr: "prayer"},
		{name: "bad recovery without faults", spec: "", recovery: "prayer", wantErr: "prayer"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spec, _, err := resolveFaults(c.spec, c.recovery)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Every accepted spec here is already in canonical form.
			if got := spec.String(); got != c.spec {
				t.Fatalf("parsed %q, want %q", got, c.spec)
			}
			if (c.spec == "") != spec.Empty() {
				t.Fatalf("Empty() = %v for spec %q", spec.Empty(), c.spec)
			}
		})
	}
}

// TestLiveEventRendersEveryKind drives the -live renderer with one event of
// every kind it formats and checks each line carries its tag and payload —
// the stream a user watches during a faulted run must name crashes,
// recoveries, retries and hedges explicitly.
func TestLiveEventRendersEveryKind(t *testing.T) {
	req := &request.Request{ID: 7, Category: request.Coding}
	cases := []struct {
		name string
		ev   serve.Event
		want []string
	}{
		{name: "snapshot", ev: serve.Snapshot{Stats: metrics.RollingStats{Running: 2, Queued: 1}},
			want: []string{"[live", "run   2", "wait   1"}},
		{name: "final snapshot", ev: serve.Snapshot{Final: true}, want: []string{"[done"}},
		{name: "violation", ev: serve.SLOViolated{Req: req, Kind: serve.ViolationTTFT},
			want: []string{"[viol", "request 7", "ttft"}},
		{name: "rejected", ev: serve.RequestRejected{Req: req, Reason: "overload"},
			want: []string{"[admt", "rejected: overload"}},
		{name: "degraded", ev: serve.RequestDegraded{Req: req, From: request.Coding, To: request.Summarization, Reason: "pressure"},
			want: []string{"[admt", "degraded"}},
		{name: "scale up", ev: serve.ScaleUp{Action: serve.ScaleAction{Up: true, Instance: 3, Role: "mixed", Reason: "load", Fleet: 4}},
			want: []string{"[scal", "+replica 3", "fleet 4"}},
		{name: "scale down", ev: serve.ScaleDown{Action: serve.ScaleAction{Instance: 3, Role: "mixed", Reason: "idle", Fleet: 3}},
			want: []string{"[scal", "-replica 3"}},
		{name: "replica failed", ev: serve.ReplicaFailed{Instance: 1, Lost: 4, Reason: "injected crash"},
			want: []string{"[falt", "replica 1 crashed", "4 resident"}},
		{name: "replica recovered", ev: serve.ReplicaRecovered{Instance: 1, Downtime: 2.5},
			want: []string{"[falt", "replica 1 recovered", "2.5s down"}},
		{name: "retried", ev: serve.RequestRetried{Req: req, Instance: 2, Attempt: 3},
			want: []string{"[falt", "request 7 retried", "attempt 3", "replica 2"}},
		{name: "hedged", ev: serve.RequestHedged{Req: req, Instance: 2},
			want: []string{"[falt", "request 7 hedged", "replica 2"}},
		{name: "migrated", ev: serve.RequestMigrated{Req: req, From: 0, To: 1, Depart: 0, Bytes: 2e6},
			want: []string{"[mig", "request 7 KV 0 -> 1", "2.0 MB"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := captureStdout(t, func() { liveEvent(c.ev, nil, nil) })
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Fatalf("liveEvent output %q missing %q", out, w)
				}
			}
		})
	}
}

// TestFleetStringStates checks the elastic-fleet occupancy tag across
// lifecycle states, including the failed count a faulted run surfaces.
func TestFleetStringStates(t *testing.T) {
	cl := idleFleet(t, experiments.RunSpec{Duration: 120, Roles: make([]cluster.Role, 3), Router: "round-robin", InitialActive: 2})
	if got := fleetString(cl); !strings.Contains(got, "fleet 2/3") {
		t.Fatalf("fleet tag %q, want active/size occupancy", got)
	}
	if _, ok := cl.Fail(0, 0.5); !ok {
		t.Fatal("Fail(0) refused")
	}
	got := fleetString(cl)
	if !strings.Contains(got, "fleet 1/3") || !strings.Contains(got, "(1 failed)") {
		t.Fatalf("fleet tag %q, want failed replica surfaced", got)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPrefixStatsFn covers the -prefix live-poller wiring: off returns no
// poller at all, a prefix-enabled fleet sums per-replica counters, and a
// prefix-enabled single system reports through the same path.
func TestPrefixStatsFn(t *testing.T) {
	setup := experiments.Llama70B()
	if prefixStatsFn(false, nil, nil) != nil {
		t.Fatal("-prefix off must disable the poller")
	}

	bopts := experiments.BuildOptions{Seed: 1, Prefix: true, PrefixHostBlocks: 64}
	cl := idleFleet(t, experiments.RunSpec{Build: bopts, Roles: make([]cluster.Role, 2), Router: "least-loaded"})
	pfx := prefixStatsFn(true, cl, nil)
	if pfx == nil {
		t.Fatal("-prefix on returned no poller")
	}
	sum := pfx()
	if sum == nil || sum.Lookups != 0 {
		t.Fatalf("idle fleet summary %+v, want zero counters", sum)
	}

	sys, err := experiments.Build(experiments.SysAdaServe, setup, bopts)
	if err != nil {
		t.Fatal(err)
	}
	if sum := prefixStatsFn(true, nil, sys)(); sum == nil {
		t.Fatal("single-system poller returned nil summary")
	}

	// A prefix-disabled backend contributes nothing even when polled.
	plain, err := experiments.Build(experiments.SysAdaServe, setup, experiments.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum := prefixStatsFn(true, nil, plain)(); sum.Lookups != 0 || sum.Hits != 0 {
		t.Fatalf("disabled backend leaked counters: %+v", sum)
	}
}

// TestLiveEventPrefixLine covers the [pfx] cache line appended to snapshots.
func TestLiveEventPrefixLine(t *testing.T) {
	out := captureStdout(t, func() {
		liveEvent(serve.Snapshot{EventMeta: serve.EventMeta{Time: 12}, Stats: metrics.RollingStats{}}, nil,
			func() *metrics.PrefixSummary {
				return &metrics.PrefixSummary{Lookups: 4, Hits: 3, HitTokens: 96}
			})
	})
	if !strings.Contains(out, "[pfx") || !strings.Contains(out, "75.0% hit") {
		t.Fatalf("snapshot missing the prefix cache line:\n%s", out)
	}
}

// TestFinishObs drives the post-run observability rendering end to end: the
// Perfetto span file, the metrics export in both extension-selected formats,
// and the percentile table — all from one synthetic finished request.
func TestFinishObs(t *testing.T) {
	dir := t.TempDir()
	req := request.New(1, request.Chat, 0.05, 0, 8, 16, 1)
	req.AdmitTime = 0.1
	req.FirstDecodeTime = 0.2
	req.FirstTokenTime = 0.3
	req.DoneTime = 1.0
	req.Phase = request.Done
	req.Generated = 4

	spans := obs.NewSpanRecorder()
	spans.OnEvent(serve.RequestFinished{
		EventMeta: serve.EventMeta{Time: 1.0, Seq: 1},
		Req:       req, Attained: true, TTFTAttained: true,
	})
	mexp := obs.NewMetricsExporter()
	mexp.OnEvent(serve.Snapshot{
		EventMeta: serve.EventMeta{Time: 5, Seq: 2},
		Stats:     metrics.RollingStats{Running: 1},
	})
	sum := metrics.Summarize("adaserve", []*request.Request{req}, metrics.Breakdown{})

	spanPath := filepath.Join(dir, "spans.json")
	promPath := filepath.Join(dir, "run.prom")
	out := captureStdout(t, func() { finishObs(spans, spanPath, mexp, promPath, true, sum) })
	for _, w := range []string{"wrote 1 span timelines", "wrote 1 metric snapshots", "p99"} {
		if !strings.Contains(out, w) {
			t.Fatalf("finishObs output %q missing %q", out, w)
		}
	}
	span, err := os.ReadFile(spanPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{`"traceEvents"`, `"queued"`, `"decode"`} {
		if !strings.Contains(string(span), w) {
			t.Fatalf("span file missing %q", w)
		}
	}
	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "# TYPE") {
		t.Fatalf("prometheus file missing # TYPE header:\n%s", prom)
	}

	// A .json extension flips the metrics export to the JSON document.
	jsonPath := filepath.Join(dir, "metrics.json")
	out = captureStdout(t, func() { finishObs(nil, "", mexp, jsonPath, false, sum) })
	if strings.Contains(out, "span timelines") {
		t.Fatalf("nil recorder still reported spans: %q", out)
	}
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(js, &doc); err != nil {
		t.Fatalf("metrics .json output is not valid JSON: %v", err)
	}
	if _, ok := doc["series"]; !ok {
		t.Fatalf("metrics JSON missing series key: %v", doc)
	}
}

// TestPrintSummaries runs a short two-replica fleet and renders both report
// paths, pinning the headline lines a user scans for after a run.
func TestPrintSummaries(t *testing.T) {
	setup := experiments.Llama70B()
	roles, err := cluster.ParseSplit("1P1D")
	if err != nil {
		t.Fatal(err)
	}
	run, err := experiments.RunSpec{
		Kind: experiments.SysAdaServe, Setup: setup, Seed: 1, Duration: 3,
		Roles: roles, Router: "slo-aware",
		Open: &experiments.OpenLoad{Profile: "constant", RPS: experiments.AdaptiveMeanRPS(setup), Salt: 0xada},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	res, rr := run.Fleet, run.Result
	// Populate the optional sections so the report renders every branch a
	// fully-featured run would.
	res.Summary.Autoscale = &metrics.AutoscaleSummary{Policy: "none"}
	res.Summary.Admission = &metrics.AdmissionSummary{}
	res.Summary.Prefix = &metrics.PrefixSummary{}
	res.Summary.Faults = &metrics.FaultSummary{}

	out := captureStdout(t, func() { printCluster(res, 2) })
	for _, w := range []string{"cluster: attainment", "goodput", "p50 TPOT", "p99 TPOT", "KV transfers:", "autoscale", "faults", "simulated:", "across 2 replicas"} {
		if !strings.Contains(out, w) {
			t.Fatalf("printCluster output missing %q:\n%s", w, out)
		}
	}

	out = captureStdout(t, func() { printSingle(res.Summary.Aggregate, rr) })
	for _, w := range []string{"throughput", "p50 TPOT", "breakdown: scheduling", "simulated:"} {
		if !strings.Contains(out, w) {
			t.Fatalf("printSingle output missing %q:\n%s", w, out)
		}
	}
}
