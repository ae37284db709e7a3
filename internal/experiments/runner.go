package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"adaserve/internal/metrics"
)

// runJobs executes n independent jobs on a pool of `parallel` worker
// goroutines and returns their results in job order — the caller observes
// exactly the sequence a sequential loop would produce, regardless of
// completion order or worker count.
//
// Determinism contract: every job must be self-contained (build its own
// engines, RNGs and request copies — share-nothing, as a lowered RunSpec
// does), so the only cross-job data are read-only inputs. Workers pull job
// indices from a channel; results land in a slice indexed by job, and the
// first error (by job index, not completion time) is returned.
func runJobs[R any](parallel, n int, run func(int) (R, error)) ([]R, error) {
	results := make([]R, n)
	if parallel > n {
		parallel = n
	}
	if parallel <= 1 {
		for i := 0; i < n; i++ {
			r, err := run(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	errs := make([]error, n)
	jobs := make(chan int)
	// failed short-circuits the grid once any job errors: in-flight jobs
	// finish, queued ones are skipped — matching the sequential path's
	// stop-at-first-error behavior instead of burning the whole grid.
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() {
					continue
				}
				results[i], errs[i] = run(i)
				if errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	for i := 0; i < n && !failed.Load(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// Cell is one grid point of a sweep: the axis values that set it apart
// from the sweep's other cells (each sweep sets the axes it varies) and,
// once run, its summary.
type Cell struct {
	// System and X are a figure sweep's axes: the serving system and the
	// sweep coordinate (request rate, urgent share, SLO scale).
	System   SystemKind
	x        float64
	replicas int
	split    string
	router   string
	mix      string
	config   string
	profile  string
	scenario string
	recovery string
	cached   bool
	Sum      *metrics.ClusterSummary
}

// String lists the cell's set axes, e.g. "split=2P2D router=slo-aware".
func (c Cell) String() string {
	var parts []string
	if c.System != "" {
		parts = append(parts, fmt.Sprintf("system=%s x=%g", c.System, c.x))
	}
	if c.replicas > 0 {
		parts = append(parts, fmt.Sprintf("n=%d", c.replicas))
	}
	for _, kv := range [][2]string{
		{"split", c.split}, {"router", c.router}, {"mix", c.mix}, {"config", c.config},
		{"profile", c.profile}, {"scenario", c.scenario}, {"recovery", c.recovery},
	} {
		if kv[1] != "" {
			parts = append(parts, kv[0]+"="+kv[1])
		}
	}
	if c.cached {
		parts = append(parts, "cached")
	}
	return strings.Join(parts, " ")
}

// runGrid runs every cell of a sweep across opts.Parallel workers — the
// run each cell describes is spec(cell) — and fills in each cell's
// summary, keeping cell order. Errors name the sweep and the failing
// cell's axes.
func runGrid(sweep string, opts RunOptions, cells []Cell, spec func(Cell) (RunSpec, error)) ([]Cell, error) {
	sums, err := runJobs(opts.Parallel, len(cells), func(i int) (*metrics.ClusterSummary, error) {
		s, err := spec(cells[i])
		var out *Outcome
		if err == nil {
			out, err = s.Run()
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", sweep, cells[i], err)
		}
		return out.Summary, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range cells {
		cells[i].Sum = sums[i]
	}
	return cells, nil
}
