package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// shortOpts keeps the determinism tests fast: a brief trace and a reduced
// system set still exercise the full speculate-select-verify pipeline.
func shortOpts(parallel int) RunOptions {
	return RunOptions{
		Seed:     1,
		Duration: 8,
		systems:  []SystemKind{SysAdaServe, SysVLLMSpec6, SysVLLM},
		Parallel: parallel,
	}
}

// pointsEqual compares sweep cells including their full summaries.
func pointsEqual(t *testing.T, a, b []Cell) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("point count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].System != b[i].System || a[i].x != b[i].x {
			t.Fatalf("point %d coordinates differ: %+v vs %+v", i, a[i], b[i])
		}
		if !reflect.DeepEqual(a[i].Sum, b[i].Sum) {
			t.Fatalf("point %d (%s x=%v): summaries differ:\n%+v\nvs\n%+v",
				i, a[i].System, a[i].x, a[i].Sum, b[i].Sum)
		}
	}
}

// TestParallelRunnerDeterministic is the runner's core guarantee: the figure
// grid run with 1 worker and with 8 workers produces identical,
// identically-ordered results (share-nothing workers, ordered reassembly).
func TestParallelRunnerDeterministic(t *testing.T) {
	setup := Llama70B()
	seq, err := Figure8and9(setup, shortOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Figure8and9(setup, shortOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	pointsEqual(t, seq, par)
}

// TestParallelAblationsDeterministic covers the ablation grid, whose cells
// vary BuildOptions rather than workloads.
func TestParallelAblationsDeterministic(t *testing.T) {
	setup := Llama70B()
	opts := RunOptions{Seed: 1, Duration: 6}
	opts.Parallel = 1
	seq, err := Ablations(setup, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = 8
	par, err := Ablations(setup, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("row count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].config != par[i].config || !reflect.DeepEqual(seq[i].Sum, par[i].Sum) {
			t.Fatalf("ablation %q differs between -parallel 1 and 8", seq[i].config)
		}
	}
}

// TestRunJobsErrorPropagation checks errors surface (sequentially: the
// first by index; in parallel: one of the failing jobs, since later jobs
// are skipped once any fails) and that worker counts beyond the job count
// are harmless.
func TestRunJobsErrorPropagation(t *testing.T) {
	_, err := runJobs(1, 5, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != "job 3 failed" {
		t.Fatalf("sequential: want first error by index (job 3), got %v", err)
	}
	_, err = runJobs(16, 5, func(i int) (int, error) {
		if i >= 3 {
			return 0, fmt.Errorf("job %d failed", i)
		}
		return i, nil
	})
	if err == nil || !strings.HasPrefix(err.Error(), "job ") {
		t.Fatalf("parallel: want a failing job's error, got %v", err)
	}
	got, err := runJobs(16, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d", i, v, i*i)
		}
	}
}
