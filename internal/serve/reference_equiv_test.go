package serve_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adaserve/internal/adaptive"
	"adaserve/internal/autoscale"
	"adaserve/internal/cluster"
	"adaserve/internal/experiments"
	"adaserve/internal/faults"
	"adaserve/internal/gpu"
	"adaserve/internal/mathutil"
	"adaserve/internal/request"
	"adaserve/internal/sched"
	"adaserve/internal/serve"
	"adaserve/internal/workload"
)

// refRun is one seeded run's wiring: what NewServer takes, the source, and
// observers that belong to the workload (a session's follow-ups).
type refRun struct {
	backend   serve.Backend
	opts      serve.Options
	src       serve.Source
	observers []serve.Observer
}

// refScenario builds a run afresh for each driver. need names what the run
// must emit, so a scenario that stops reaching its case fails instead of
// passing vacuously: event types, and "held" for an arrival admitted after
// its arrival instant (held through an outage).
type refScenario struct {
	name  string
	build func(t *testing.T) refRun
	need  []string
}

// fleet builds a cluster with one replica per role behind the named router,
// elastic from initial active replicas when initial > 0.
func fleet(t *testing.T, roles []cluster.Role, router string, batch int, prefix bool, initial int) *cluster.Cluster {
	t.Helper()
	systems := make([]sched.System, len(roles))
	for i, role := range roles {
		systems[i] = vllmSystem(t, uint64(i)+1, 100000, batch, role.Mode(), prefix)
	}
	rt, err := cluster.NewRouter(router)
	if err != nil {
		t.Fatal(err)
	}
	transfer := gpu.KVTransfer{Model: gpu.Llama70B, Link: gpu.RDMA400}
	var cl *cluster.Cluster
	if initial > 0 {
		cl, err = cluster.NewElastic(systems, roles, rt, transfer, cluster.ElasticOptions{ColdStart: 2, InitialActive: initial})
	} else {
		cl, err = cluster.NewWithRoles(systems, roles, rt, transfer)
	}
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// openLoop is a seeded open-loop stream of the default mix.
func openLoop(t *testing.T, profile string, rps, duration float64, seed uint64) serve.Source {
	t.Helper()
	rate, peak, err := workload.RateProfile(profile, rps, duration)
	if err != nil {
		t.Fatal(err)
	}
	gen, err := experiments.NewGenerator(experiments.Llama70B(), workload.DefaultMix, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	src, err := serve.NewOpenLoop(gen, mathutil.NewRNG(seed), rate, peak, duration)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// injector arms a fault spec on a fleet.
func injector(t *testing.T, cl *cluster.Cluster, spec string, rec faults.Recovery, horizon float64) *faults.Injector {
	t.Helper()
	s, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(cl, s, faults.Options{Seed: 3, Horizon: horizon, Recovery: rec})
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func refScenarios() []refScenario {
	mixed := func(n int) []cluster.Role { return make([]cluster.Role, n) }
	return []refScenario{
		{name: "least-loaded", need: []string{"RequestFinished", "Snapshot"},
			build: func(t *testing.T) refRun {
				return refRun{backend: fleet(t, mixed(4), "least-loaded", 32, false, 0),
					opts: serve.Options{SnapshotEvery: 2}, src: openLoop(t, "diurnal", 6, 30, 1)}
			}},
		{name: "prefix-affinity", need: []string{"RequestFinished"},
			build: func(t *testing.T) refRun {
				sessions, err := experiments.NewSessions(experiments.Llama70B(), 2)
				if err != nil {
					t.Fatal(err)
				}
				src := serve.NewSubmitSource()
				for _, r := range sessions.InitialRequests() {
					if err := src.Submit(r); err != nil {
						t.Fatal(err)
					}
				}
				followUp := serve.ObserverFunc(func(ev serve.Event) {
					if e, ok := ev.(serve.RequestFinished); ok {
						if next := sessions.FollowUp(e.Req, e.Time); next != nil {
							if err := src.Submit(next); err != nil {
								t.Error(err)
							}
						}
					}
				})
				return refRun{backend: fleet(t, mixed(3), "prefix-affinity", 32, true, 0),
					src: src, observers: []serve.Observer{followUp}}
			}},
		{name: "disaggregated", need: []string{"RequestMigrated"},
			build: func(t *testing.T) refRun {
				roles := []cluster.Role{cluster.RolePrefill, cluster.RoleDecode, cluster.RolePrefill, cluster.RoleDecode, cluster.RoleDecode}
				return refRun{backend: fleet(t, roles, "least-loaded", 32, false, 0),
					src: openLoop(t, "constant", 5, 30, 4)}
			}},
		{name: "crash-repair-hedge", need: []string{"ReplicaFailed", "ReplicaRecovered", "RequestRetried", "RequestHedged"},
			build: func(t *testing.T) refRun {
				cl := fleet(t, mixed(4), "least-loaded", 32, false, 0)
				inj := injector(t, cl, "crash@8+6:r0; slow@12+10:r1:x6", faults.RecoveryRetryHedge, 30)
				return refRun{backend: cl, opts: serve.Options{Faults: inj}, src: openLoop(t, "constant", 7, 30, 5)}
			}},
		{name: "hedge-to-idle", need: []string{"RequestHedged"},
			// A light load leaves replicas idle, so a tick's hedge can land
			// work on an instance the index holds at +Inf.
			build: func(t *testing.T) refRun {
				cl := fleet(t, mixed(4), "least-loaded", 32, false, 0)
				inj := injector(t, cl, "slow@5+15:r1:x20", faults.RecoveryRetryHedge, 30)
				return refRun{backend: cl, opts: serve.Options{Faults: inj}, src: openLoop(t, "constant", 1, 30, 5)}
			}},
		{name: "elastic-drain", need: []string{"ScaleUp", "ScaleDown", "RequestMigrated"},
			build: func(t *testing.T) refRun {
				cl := fleet(t, mixed(5), "least-loaded", 4, false, 2)
				policy, err := autoscale.NewPolicy("rate-prop")
				if err != nil {
					t.Fatal(err)
				}
				as, err := autoscale.New(cl, policy, autoscale.Options{Interval: 1, Window: 4})
				if err != nil {
					t.Fatal(err)
				}
				return refRun{backend: cl, opts: serve.Options{Autoscaler: as}, src: openLoop(t, "spike", 8, 40, 6)}
			}},
		{name: "adaptive-admission", need: []string{"RequestRejected"},
			build: func(t *testing.T) refRun {
				cl := fleet(t, mixed(2), "least-loaded", 32, false, 0)
				ac, err := adaptive.New(cl, adaptive.Config{DisableTuning: true, Interval: 1, Window: 5})
				if err != nil {
					t.Fatal(err)
				}
				return refRun{backend: cl, opts: serve.Options{Adaptive: ac}, src: openLoop(t, "spike", 12, 30, 7)}
			}},
		{name: "whole-fleet-outage", need: []string{"ReplicaFailed", "ReplicaRecovered", "held"},
			build: func(t *testing.T) refRun {
				cl := fleet(t, mixed(2), "least-loaded", 32, false, 0)
				inj := injector(t, cl, "crash@6+4:r0; crash@6+5:r1", faults.RecoveryRetry, 20)
				return refRun{backend: cl, opts: serve.Options{Faults: inj}, src: openLoop(t, "constant", 4, 20, 8)}
			}},
	}
}

// render prints an event with each request shown by ID.
func render(ev serve.Event) string {
	v := reflect.ValueOf(ev)
	var b strings.Builder
	b.WriteString(v.Type().Name())
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(&b, " %s=", v.Type().Field(i).Name)
		if r, ok := v.Field(i).Interface().(*request.Request); ok {
			fmt.Fprintf(&b, "req%d", r.ID)
		} else {
			fmt.Fprintf(&b, "%+v", v.Field(i).Interface())
		}
	}
	return b.String()
}

// drive runs sc under the indexed driver, or under the fleet scan it
// replaced, and returns the rendered event stream, the result and the counts
// refScenario.need reads.
func drive(t *testing.T, sc refScenario, scan bool) ([]string, *serve.Result, map[string]int) {
	t.Helper()
	r := sc.build(t)
	srv, err := serve.NewServer(r.backend, r.opts)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	seen := make(map[string]int)
	srv.Subscribe(serve.ObserverFunc(func(ev serve.Event) {
		log = append(log, render(ev))
		seen[reflect.TypeOf(ev).Name()]++
		if a, ok := ev.(serve.RequestAdmitted); ok && a.Time > a.Req.ArrivalTime {
			seen["held"]++
		}
	}))
	for _, o := range r.observers {
		srv.Subscribe(o)
	}
	run := srv.Run
	if scan {
		run = srv.RunScan
	}
	res, err := run(r.src)
	if err != nil {
		t.Fatal(err)
	}
	return log, res, seen
}

// TestIndexedDriverMatchesScan runs every scenario under the indexed driver
// and under the fleet scan it replaced: the event streams and the results
// must be identical.
func TestIndexedDriverMatchesScan(t *testing.T) {
	for _, sc := range refScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got, gotRes, seen := drive(t, sc, false)
			want, wantRes, _ := drive(t, sc, true)
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("event %d diverged:\n index %s\n scan  %s", i, got[i], want[i])
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%d events, scan emitted %d", len(got), len(want))
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("result %+v, scan %+v", gotRes, wantRes)
			}
			for _, kind := range sc.need {
				if seen[kind] == 0 {
					t.Errorf("no %s: the scenario no longer reaches its case", kind)
				}
			}
		})
	}
}
