package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"adaserve/perfledger/stats"
)

// microBound is the noise band applied to go-test micro-benchmarks, which
// BENCHMARK.json gives no bound. Their rows are informational: they do not
// set the exit status.
const microBound = 0.10

// countBand replaces a metric's bound when both snapshots ran the same
// inputs (seed and scale) and the metric repeats within each of them, as
// allocation counts and the live heap do. BENCHMARK.json's bounds must hold
// the spread over ten different seeds; at one seed such a metric counts the
// same work every time, so any larger move is the code's.
const countBand = 0.01

// repeats reports whether a metric's values agree within each snapshot to
// a thousandth of its median.
func repeats(s stats.Summary) bool { return s.N > 0 && s.Q3-s.Q1 <= 0.001*math.Abs(s.Median) }

// bound is one end-to-end metric's regression rule from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return b.EndToEnd, nil
}

// loadSnapshot reads a joined snapshot or a bare perfledger -json file.
func loadSnapshot(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Perf) > 0 {
		var p perf
		if err := json.Unmarshal(s.Perf, &p); err != nil {
			return nil, fmt.Errorf("%s: perf: %w", path, err)
		}
		s.Seed, s.Scale, s.Workloads = p.Seed, p.Scale, p.Workloads
	}
	return &s, nil
}

// classify compares metric samples a (before) and b (after). A side whose
// quartile spread exceeds the bound leaves the change unresolved, unless
// every sample of b beats every sample of a; otherwise a median change
// beyond the bound is better or worse. change is the relative change of
// the median, positive when it got worse.
func classify(a, b stats.Summary, better string, bnd float64) (verdict string, change float64) {
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	switch {
	case a.N == 0 || b.N == 0:
		return "unresolved", 0
	case a.Median == 0 && b.Median == 0:
		return "unchanged", 0 // e.g. a zero-allocation benchmark
	case a.Median == 0:
		if sign*b.Median > 0 {
			return "worse", math.Inf(1)
		}
		return "better", math.Inf(-1)
	}
	change = sign * (b.Median - a.Median) / a.Median
	spread := func(s stats.Summary) float64 { return (s.Q3 - s.Q1) / s.Median }
	if spread(a) > bnd || spread(b) > bnd {
		if allBetter(a.Samples, b.Samples, sign) {
			return "better", change
		}
		return "unresolved", change
	}
	switch {
	case change > bnd:
		return "worse", change
	case change < -bnd:
		return "better", change
	}
	return "unchanged", change
}

// allBetter reports whether every b sample beats every a sample; sign is
// +1 when lower is better.
func allBetter(a, b []float64, sign float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	worstB, bestA := sign*b[0], sign*a[0]
	for _, v := range b {
		worstB = max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = min(bestA, sign*v)
	}
	return worstB < bestA
}

func diffCmd(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	if fs.NArg() != 2 {
		return 0, fmt.Errorf("diff wants two snapshots, got %d", fs.NArg())
	}
	bounds, err := loadBounds(*benchPath)
	if err != nil {
		return 0, err
	}
	a, err := loadSnapshot(fs.Arg(0))
	if err != nil {
		return 0, err
	}
	b, err := loadSnapshot(fs.Arg(1))
	if err != nil {
		return 0, err
	}
	if len(a.Workloads) == 0 || len(b.Workloads) == 0 {
		return 0, fmt.Errorf("both snapshots need perfledger workloads")
	}
	sameInputs := a.Seed == b.Seed && a.Scale == b.Scale
	after := map[string]workload{}
	for _, w := range b.Workloads {
		after[w.Workload] = w
	}
	code := 0
	fmt.Fprintf(stdout, "%-16s %-20s %14s %14s %8s  %s\n", "workload", "metric", "before", "after", "change", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := after[wa.Workload]
		if !ok {
			fmt.Fprintf(stdout, "%-16s missing from %s\n", wa.Workload, fs.Arg(1))
			code = 1
			continue
		}
		if wa.Digest != wb.Digest {
			fmt.Fprintf(stdout, "%-16s digest changed %.12s -> %.12s: the simulated behaviour differs\n", wa.Workload, wa.Digest, wb.Digest)
			code = 1
		}
		if wb.Failed > 0 {
			fmt.Fprintf(stdout, "%-16s %d of %d runs failed\n", wb.Workload, wb.Failed, wb.Attempted)
			code = 1
		}
		for _, m := range bounds {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			bnd, rule := m.Bound, "bound"
			if sameInputs && repeats(sa) && repeats(sb) && countBand < bnd {
				bnd, rule = countBand, "same-input count band"
			}
			verdict, change := classify(sa, sb, m.Better, bnd)
			if verdict == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-20s %14.6g %14.6g %+7.2f%%  %s (%s %.0f%%)\n",
				wa.Workload, m.Name, sa.Median, sb.Median, 100*change, verdict, rule, 100*bnd)
		}
	}
	printMicro(stdout, a.Micro, b.Micro)
	return code, nil
}

// printMicro lists the micro-benchmarks both snapshots ran, by ns/op and
// allocs/op, against the fixed micro-benchmark band.
func printMicro(w io.Writer, a, b []micro) {
	after := map[string]micro{}
	for _, m := range b {
		after[m.Name] = m
	}
	for _, ma := range a {
		mb, ok := after[ma.Name]
		if !ok {
			continue
		}
		units := make([]string, 0, len(ma.Metrics))
		for u := range ma.Metrics {
			if u == "ns/op" || u == "allocs/op" {
				units = append(units, u)
			}
		}
		sort.Strings(units)
		for _, u := range units {
			sa, sb := ma.Metrics[u], mb.Metrics[u]
			verdict, change := classify(sa, sb, "lower", microBound)
			fmt.Fprintf(w, "%-16s %-20s %14.6g %14.6g %+7.2f%%  %s (micro, band %.0f%%)\n",
				ma.Name, u, sa.Median, sb.Median, 100*change, verdict, 100*microBound)
		}
	}
}
