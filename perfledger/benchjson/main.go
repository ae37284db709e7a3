// Command benchjson builds and compares performance snapshots.
//
//	go test -bench ... | go run ./scripts/benchjson |
//	  benchjson snapshot -date D -perf perf.json > BENCH_D.json
//	benchjson diff [-bench BENCHMARK.json] A.json B.json
//
// snapshot reads the repository's scripts/benchjson artifact, which holds
// one result per benchmark line, folds the repetitions of each benchmark
// (one per -count) into a median and quartiles per unit, and joins them
// with a perfledger -json snapshot. diff compares two snapshots (or two
// perfledger -json files): each (workload, end-to-end metric) is better,
// worse, unchanged or unresolved against the metric's bound in
// BENCHMARK.json, or against the tighter count band for a metric that
// repeats exactly when both ran the same seed, and any change of a
// workload's behaviour digest or any failed run is flagged. diff exits 1 on a worse metric, a digest change or
// a failed run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"adaserve/perfledger/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, "usage: benchjson snapshot|diff ...")
		return 2
	}
	var err error
	code := 0
	switch args[0] {
	case "snapshot":
		err = snapshotCmd(args[1:], stdin, stdout)
	case "diff":
		code, err = diffCmd(args[1:], stdout)
	default:
		err = fmt.Errorf("unknown command %q (want snapshot or diff)", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchjson:", err)
		return 2
	}
	return code
}

// workload is the part of a perfledger report that diff reads.
type workload struct {
	Workload  string                   `json:"workload"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Digest    string                   `json:"digest"`
	EndToEnd  map[string]stats.Summary `json:"end_to_end"`
}

// perf is a perfledger -json snapshot, kept verbatim in a joined snapshot.
type perf struct {
	Seed      uint64     `json:"seed"`
	Scale     float64    `json:"scale"`
	Workloads []workload `json:"workloads"`
}

// micro is one go-test benchmark over its -count repetitions, by unit.
type micro struct {
	Name    string                   `json:"name"`
	Metrics map[string]stats.Summary `json:"metrics"`
}

// snapshot is the joined file snapshot writes. A bare perfledger -json
// file decodes into it too, with its workloads at the top level.
type snapshot struct {
	Date      string            `json:"date,omitempty"`
	Env       map[string]string `json:"env,omitempty"`
	Perf      json.RawMessage   `json:"perf,omitempty"`
	Micro     []micro           `json:"micro,omitempty"`
	Seed      uint64            `json:"seed,omitempty"`
	Scale     float64           `json:"scale,omitempty"`
	Workloads []workload        `json:"workloads,omitempty"`
}

// artifact is the part of a scripts/benchjson artifact snapshot reads. It
// leaves zero values out, so a result without B/op or allocs/op reads as
// 0; snapshot.sh always runs the micro-benchmarks with -benchmem.
type artifact struct {
	GoVersion string            `json:"go_version"`
	Env       map[string]string `json:"env"`
	Results   []struct {
		Name       string             `json:"name"`
		NsPerOp    float64            `json:"ns_per_op"`
		BytesPerOp float64            `json:"bytes_per_op"`
		AllocsOp   float64            `json:"allocs_per_op"`
		Metrics    map[string]float64 `json:"metrics"`
	} `json:"results"`
}

func snapshotCmd(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapshot", flag.ContinueOnError)
	date := fs.String("date", "", "date stamp of the snapshot")
	perfPath := fs.String("perf", "", "perfledger -json output to include")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var art artifact
	if err := json.NewDecoder(stdin).Decode(&art); err != nil {
		return fmt.Errorf("reading the scripts/benchjson artifact: %w", err)
	}
	snap := snapshot{Date: *date, Env: map[string]string{"go_version": art.GoVersion}, Micro: foldResults(art)}
	for k, v := range art.Env {
		snap.Env[k] = v
	}
	if *perfPath != "" {
		data, err := os.ReadFile(*perfPath)
		if err != nil {
			return err
		}
		var p struct {
			Env map[string]string `json:"env"`
		}
		if err := json.Unmarshal(data, &p); err != nil {
			return fmt.Errorf("%s: %w", *perfPath, err)
		}
		for k, v := range p.Env {
			snap.Env[k] = v
		}
		snap.Perf = data
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", out)
	return err
}

// foldResults folds the artifact's repeated results of one benchmark into
// one entry per benchmark, in the order they first appear.
func foldResults(art artifact) []micro {
	samples := map[string]map[string][]float64{}
	var order []string
	for _, r := range art.Results {
		if samples[r.Name] == nil {
			samples[r.Name] = map[string][]float64{}
			order = append(order, r.Name)
		}
		units := map[string]float64{"ns/op": r.NsPerOp, "B/op": r.BytesPerOp, "allocs/op": r.AllocsOp}
		for unit, v := range r.Metrics {
			units[unit] = v
		}
		for unit, v := range units {
			samples[r.Name][unit] = append(samples[r.Name][unit], v)
		}
	}
	out := make([]micro, 0, len(order))
	for _, name := range order {
		m := micro{Name: name, Metrics: map[string]stats.Summary{}}
		for unit, xs := range samples[name] {
			m.Metrics[unit] = stats.Summarize(xs, "")
		}
		out = append(out, m)
	}
	return out
}
