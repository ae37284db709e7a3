package experiments

import (
	"reflect"
	"testing"

	"adaserve/internal/cluster"
)

// autoscaleOpts keeps the autoscaling tests fast while leaving the profile
// dynamics intact: decisions every 0.8 s, a 1.2 s cold start, 3 s windows.
func autoscaleOpts(parallel int) RunOptions {
	return RunOptions{Seed: 1, Duration: 24, Parallel: parallel}
}

// TestAutoscalingDeterministic is the autoscaling experiment's determinism
// guarantee: the full sweep — open-loop sources, elastic clusters, scaling
// controllers and all — is byte-identical at any worker count.
func TestAutoscalingDeterministic(t *testing.T) {
	setup := Llama70B()
	seq, err := Autoscaling(setup, autoscaleOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Autoscaling(setup, autoscaleOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].config != par[i].config || seq[i].profile != par[i].profile || seq[i].router != par[i].router {
			t.Fatalf("point %d coordinates differ: %+v vs %+v", i, seq[i], par[i])
		}
		if !reflect.DeepEqual(seq[i].Sum, par[i].Sum) {
			t.Fatalf("point %d (%s/%s/%s): summaries differ between -parallel 1 and 8",
				i, seq[i].config, seq[i].profile, seq[i].router)
		}
	}

	// The sweep's reason to exist: under every time-varying profile, at
	// least one scaling policy must beat the equal-peak static fleet on
	// goodput per replica-second — same router, identical arrival stream.
	static := map[string]float64{} // profile/router -> static headline
	for _, p := range seq {
		if p.config == "static" {
			static[p.profile+"/"+p.router] = p.Sum.Autoscale.GoodputPerReplicaSecond()
		}
	}
	for _, profile := range autoscaleProfiles() {
		beat := false
		for _, p := range seq {
			if p.profile != profile || p.config == "static" {
				continue
			}
			if p.Sum.Autoscale.GoodputPerReplicaSecond() > static[p.profile+"/"+p.router] {
				beat = true
				break
			}
		}
		if !beat {
			t.Errorf("profile %s: no policy beat the equal-peak static fleet on goodput/replica-second", profile)
		}
	}
}

// TestAutoscalingCellShape sanity-checks one elastic cell's summary: the
// controller actually moved the fleet, billed fewer replica-seconds than
// the always-on capacity fleet, and the static cell reports exactly
// capacity x duration economics.
func TestAutoscalingCellShape(t *testing.T) {
	setup := Llama70B()
	opts := autoscaleOpts(4)
	opts.fill()
	spec, err := autoscaleCell(setup, "static", "diurnal", "least-loaded", opts)
	static := runSpec(t, spec, err).Summary
	spec, err = autoscaleCell(setup, "rate-prop", "diurnal", "least-loaded", opts)
	elastic := runSpec(t, spec, err).Summary
	sa, ea := static.Autoscale, elastic.Autoscale
	if sa == nil || ea == nil {
		t.Fatal("cluster summaries must carry autoscale economics")
	}
	if sa.Policy != "static" || ea.Policy != "rate-prop" {
		t.Fatalf("policies stamped wrong: %q / %q", sa.Policy, ea.Policy)
	}
	if sa.ScaleUps != 0 || sa.ScaleDowns != 0 || sa.PeakReplicas != AutoscaleFleet || sa.MinReplicas != AutoscaleFleet {
		t.Fatalf("static fleet must not scale: %+v", sa)
	}
	if ea.ScaleUps == 0 || ea.ScaleDowns == 0 {
		t.Fatalf("elastic fleet never moved under a diurnal profile: %+v", ea)
	}
	if ea.PeakReplicas <= ea.MinReplicas {
		t.Fatalf("fleet watermarks did not spread: %+v", ea)
	}
	if ea.ReplicaSeconds >= sa.ReplicaSeconds {
		t.Fatalf("elastic fleet billed %ved replica-seconds, static %v — scaling saved nothing",
			ea.ReplicaSeconds, sa.ReplicaSeconds)
	}
	if ea.Finished == 0 || ea.GoodTokens == 0 {
		t.Fatalf("elastic cell served nothing: %+v", ea)
	}
}

// TestBuildElasticDisagg wires role-aware elastic construction end to end:
// per-role pools with spares.
func TestBuildElasticDisagg(t *testing.T) {
	setup := Llama70B()
	roles, err := cluster.ParseSplit("2P2D")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := buildCluster(SysAdaServe, setup, roles, "least-loaded",
		&cluster.ElasticOptions{ColdStart: 1.0, InitialActive: 1}, BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !cl.Elastic() {
		t.Fatal("cluster not elastic")
	}
	pp := cl.CountPool(cluster.RolePrefill)
	dp := cl.CountPool(cluster.RoleDecode)
	// One active replica and one spare per pool: nothing provisions yet.
	if pp.Active != 1 || pp.Provisioning != 0 || pp.Capacity() != 2 || dp.Active != 1 || dp.Provisioning != 0 || dp.Capacity() != 2 {
		t.Fatalf("initial pools wrong: prefill %+v decode %+v", pp, dp)
	}
}
