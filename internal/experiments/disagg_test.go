package experiments

import (
	"reflect"
	"testing"

	"adaserve/internal/cluster"
	"adaserve/internal/gpu"
	"adaserve/internal/metrics"
	"adaserve/internal/workload"
)

// TestDisaggEndToEnd runs a real (engine-backed) disaggregated cluster over
// a short trace and checks the migration pipeline end to end: every request
// finishes, every request migrates exactly once, prefill replicas never
// decode, and the transfer accounting matches the trace's prompt volume.
func TestDisaggEndToEnd(t *testing.T) {
	setup := Llama70B()
	reqs, err := mixedTrace(setup, workload.DefaultMix, 1.0, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	roles, err := cluster.ParseSplit("1P1D")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunSpec{Kind: SysAdaServe, Setup: setup, Seed: 1,
		Roles: roles, Router: "least-loaded", Requests: reqs}.Lower()
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.Run()
	if err != nil {
		t.Fatal(err)
	}
	res := out.Fleet
	if res.Summary.Aggregate.Finished != len(reqs) {
		t.Fatalf("finished %d of %d", res.Summary.Aggregate.Finished, len(reqs))
	}
	if res.Summary.Transfer.Count != len(reqs) {
		t.Fatalf("%d transfers for %d requests", res.Summary.Transfer.Count, len(reqs))
	}
	var promptBytes float64
	for _, r := range reqs {
		promptBytes += gpu.KVTransfer{Model: setup.Target}.Bytes(r.PromptLen)
	}
	if res.Summary.Transfer.Bytes != promptBytes {
		t.Fatalf("transfer bytes %.0f, want %.0f (prompt KV volume)", res.Summary.Transfer.Bytes, promptBytes)
	}
	// Every arrival prefilled on the prefill replica and every migration
	// decoded on the decode replica.
	byRole := map[string]metrics.RoleStats{}
	for _, rs := range res.Summary.Roles {
		byRole[rs.Role] = rs
	}
	if byRole["prefill"].PrefillRequests != len(reqs) || byRole["decode"].DecodeRequests != len(reqs) {
		t.Fatalf("role filtering violated: %+v", res.Summary.Roles)
	}
	// The prefill replica must have spent zero GPU time in decode/verify.
	pre := res.PerReplica[0].Summary.Breakdown
	if pre.Verification != 0 || pre.Speculation != 0 {
		t.Fatalf("prefill replica spent decode time: %+v", pre)
	}
	if pre.Prefill <= 0 {
		t.Fatal("prefill replica did no prefill work")
	}
	dec := res.PerReplica[1].Summary.Breakdown
	if dec.Prefill != 0 {
		t.Fatalf("decode replica spent prefill time: %+v", dec)
	}
}

// TestDisaggDeterministicAcrossParallel is the acceptance guarantee for the
// disagg experiment: the grid run with 1 worker and with 8 workers produces
// identical, identically-ordered results.
func TestDisaggDeterministicAcrossParallel(t *testing.T) {
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Duration: 6, Parallel: 1}
	seq, err := Disaggregation(setup, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	par, err := Disaggregation(setup, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("point count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].split != par[i].split || seq[i].router != par[i].router || seq[i].mix != par[i].mix {
			t.Fatalf("point %d coordinates differ: %+v vs %+v", i, seq[i], par[i])
		}
		if !reflect.DeepEqual(seq[i].Sum, par[i].Sum) {
			t.Fatalf("point %d (%s/%s/%s) differs between -parallel 1 and 8",
				i, seq[i].split, seq[i].router, seq[i].mix)
		}
	}
}

// TestDisaggSplitBeatsColocatedTTFT pins the experiment's headline: at equal
// aggregate load, at least one prefill/decode split beats the colocated
// 4-replica fleet on TTFT attainment (dedicated prefill replicas serve
// prompts monolithically instead of drip-feeding chunks between decode
// iterations).
func TestDisaggSplitBeatsColocatedTTFT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-cell cluster grid")
	}
	setup := Llama70B()
	pts, err := Disaggregation(setup, RunOptions{Seed: 1, Duration: 30, Parallel: 8})
	if err != nil {
		t.Fatal(err)
	}
	colocated := map[string]float64{} // router -> TTFT attainment on the default mix
	bestSplit := map[string]float64{}
	for _, p := range pts {
		if p.mix != "default" {
			continue
		}
		ttft := p.Sum.TTFTAttainment()
		if p.split == "colocated" {
			colocated[p.router] = ttft
		} else if ttft > bestSplit[p.router] {
			bestSplit[p.router] = ttft
		}
	}
	won := false
	for router, base := range colocated {
		if bestSplit[router] > base {
			won = true
		}
	}
	if !won {
		t.Fatalf("no P/D split beat colocated on TTFT attainment: colocated %v vs best split %v",
			colocated, bestSplit)
	}
}
