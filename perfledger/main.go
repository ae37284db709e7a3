// Command perfledger measures the simulator's own speed. For a seed it
// makes the inputs of one of four workloads (see workloads.go), times
// passes over them with tracing off for the end-to-end metrics, and, with
// -trace 1, makes traced passes whose timing decorators and folded CPU
// profile give the per-layer metrics. Every run of an input must reproduce
// that input's behaviour digest, so a change that alters what the simulator
// computes fails here instead of scoring.
//
// From the repository root:
//
//	bash perfledger/run.sh --workload spec-decode --seed 1 --seconds 25 --trace 0
//
// or go run ./perfledger -seed 1 (every workload, traced). It
// prints one "workload metric value unit" line per metric and, as its last
// line, one JSON object with the fields correct, attempted, failed and
// metrics. -json writes the full snapshot (quartiles, samples, digests,
// per-layer table and host description) for benchjson.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"adaserve/perfledger/stats"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	passes   int
	trace    int
	scale    float64
	json     string
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 25, "measurement window per workload, in seconds")
	flag.IntVar(&o.passes, "passes", 2, "minimum timed passes over the inputs per workload")
	flag.IntVar(&o.trace, "trace", 1, "0: end-to-end metrics only; 1: also traced passes for the per-layer metrics")
	flag.Float64Var(&o.scale, "scale", 1, "workload size factor (tests only; metrics are defined at 1)")
	flag.StringVar(&o.json, "json", "", "write the full snapshot to this file")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the CPU profile of traced runs")
	flag.Parse()
	if err := run(o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfledger:", err)
		os.Exit(1)
	}
}

// run measures the selected workloads and writes the metric lines and the
// result line to stdout.
func run(o options, stdout io.Writer) error {
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) || o.passes < 1 || !(o.scale > 0) {
		return fmt.Errorf("-seconds, -passes and -scale must be positive")
	}
	var selected []*workloadSpec
	if o.workload == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		selected = append(selected, w)
	}
	snap := snapshot{Env: hostEnv(o.json != ""), Seed: o.seed, Scale: o.scale, Seconds: o.seconds}
	ref, err := newReference()
	if err != nil {
		return err
	}
	defer ref.release()
	for _, w := range selected {
		rep, err := measure(w, o, ref)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		snap.Workloads = append(snap.Workloads, rep)
	}
	if o.json != "" {
		data, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.json, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return printResult(stdout, snap, o.trace == 1, len(selected) > 1)
}

// value is one per-layer metric of a workload's traced runs.
type value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// report is everything measured on one workload.
type report struct {
	Workload  string `json:"workload"`
	Inputs    int    `json:"inputs"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// OpsFailedPct is the share of runs that errored or disagreed on the
	// digest; it is reported, not scored, because it is 0 when all is well.
	OpsFailedPct float64  `json:"ops_failed_pct"`
	Errors       []string `json:"errors,omitempty"`
	// Digest covers every input's digest, and the simulated figures sum
	// over the inputs. They are behaviour, not speed: benchjson diff flags
	// any change of the digest.
	Digest        string                   `json:"digest"`
	InputDigests  []string                 `json:"input_digests"`
	Requests      int                      `json:"sim_requests"`
	AttainmentPct float64                  `json:"sim_attainment_pct"`
	GoodputTokS   float64                  `json:"sim_goodput_tok_s"`
	EndToEnd      map[string]stats.Summary `json:"end_to_end"`
	PerLayer      map[string]value         `json:"per_layer,omitempty"`

	summarized, attained int
}

type snapshot struct {
	Env       map[string]string `json:"env"`
	Seed      uint64            `json:"seed"`
	Scale     float64           `json:"scale"`
	Seconds   float64           `json:"seconds"`
	Workloads []*report         `json:"workloads"`
}

// endToEnd are the scored metrics, measured with tracing off: set-up once
// per run, the others once per pass over the seed's inputs. Times are CPU
// time, which on a virtualized host leaves out time stolen by other guests,
// where wall time does not. A run is timed on the whole process, so the
// concurrent garbage collector counts; a set-up, a millisecond or so, on its
// own thread (see threadCPUTime), since whether a collection cycle happens
// to overlap it would otherwise decide its time. Both are then calibrated
// against the reference workload (see calibrate.go).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"sim_req_per_cpu_s", "req/s"},
	{"allocs_per_req", "allocs/req"},
	{"bytes_per_req", "B/req"},
	{"live_heap_mb", "MB"},
}

// infoMetrics are written to the snapshot but not scored. Wall time is
// what a user waits, but it moves with the host's load; simulated seconds
// per CPU second swing with the length of the last requests' drain, which
// the seed decides; ref_s is the reference workload's own CPU time.
var infoMetrics = []metricDef{{"wall_s", "s"}, {"sim_s_per_cpu_s", "sim-s/s"}, {"ref_s", "s"}}

// sample is one run's raw measurements.
type sample struct {
	input            int // which of the seed's inputs ran
	setup, wall, cpu time.Duration
	ref              time.Duration // the reference run just before
	mallocs, bytes   uint64
	liveHeap         uint64
	offered          int
	simEnd           float64
	outcome          *outcome
	err              error
}

// calibrated converts one of the sample's durations to calibrated seconds.
func (s sample) calibrated(d time.Duration) float64 {
	return d.Seconds() * float64(refNominal) / float64(s.ref)
}

// passMetrics are one pass's end-to-end (but set-up) and information
// values, from the runs of every input, with times in calibrated seconds.
// cpu_s and wall_s are the whole pass's; live_heap_mb and ref_s are per run.
func passMetrics(pass []sample) map[string]float64 {
	var cpu, wall, ref, simEnd, req, mallocs, bytes, heap float64
	for _, s := range pass {
		cpu += s.calibrated(s.cpu)
		wall += s.wall.Seconds()
		ref += s.ref.Seconds()
		simEnd += s.simEnd
		req += float64(s.offered)
		mallocs += float64(s.mallocs)
		bytes += float64(s.bytes)
		heap += float64(s.liveHeap)
	}
	n := float64(len(pass))
	return map[string]float64{
		"cpu_s":             cpu,
		"sim_req_per_cpu_s": req / cpu,
		"sim_s_per_cpu_s":   simEnd / cpu,
		"allocs_per_req":    mallocs / req,
		"bytes_per_req":     bytes / req,
		"live_heap_mb":      heap / n / 1e6,
		"wall_s":            wall,
		"ref_s":             ref / n,
	}
}

// runOnce sets one simulation up and runs it. The garbage of earlier runs
// is collected first, outside the timed spans. A tracer also profiles the
// run itself, not the set-up or the collections.
func runOnce(setup setupFunc, t *tracer) sample {
	var s sample
	var base, before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&base)
	runtime.LockOSThread()
	cpu0 := threadCPUTime()
	sm, err := setup(t)
	s.setup = threadCPUTime() - cpu0
	runtime.UnlockOSThread()
	if err != nil {
		s.err = fmt.Errorf("setup: %w", err)
		return s
	}
	runtime.ReadMemStats(&before)
	if err := t.startProfile(); err != nil {
		s.err = err
		return s
	}
	start, cpu0 := time.Now(), cpuTime()
	out, err := sm.run(t)
	s.wall, s.cpu = time.Since(start), cpuTime()-cpu0
	if perr := t.stopProfile(); err == nil {
		err = perr
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		s.err = err
		return s
	}
	s.mallocs = after.Mallocs - before.Mallocs
	s.bytes = after.TotalAlloc - before.TotalAlloc
	// The heap the finished simulation and its results hold, over what
	// was live before set-up (the inputs).
	runtime.GC()
	runtime.ReadMemStats(&after)
	s.liveHeap = after.HeapAlloc - base.HeapAlloc
	runtime.KeepAlive(sm)
	s.offered, s.simEnd, s.outcome = out.offered, out.rr.EndTime, out
	s.err = check(out, sm.lossy)
	return s
}

// record books one run: errored runs and runs whose digest differs from
// the first run of the same input count as failed.
func (r *report) record(s sample) bool {
	r.Attempted++
	err := s.err
	if err == nil {
		d := digest(s.outcome)
		switch want := r.InputDigests[s.input]; {
		case want == "":
			a := s.outcome.sum.Aggregate
			r.InputDigests[s.input] = d
			r.Requests += s.offered
			r.summarized += a.Requests
			r.attained += a.Attained
			r.GoodputTokS += a.Goodput / float64(r.Inputs)
		case d != want:
			err = fmt.Errorf("input %d: digest %.12s differs from its first run's %.12s", s.input, d, want)
		}
	}
	if err != nil {
		r.Failed++
		if len(r.Errors) < 5 {
			r.Errors = append(r.Errors, err.Error())
		}
		return false
	}
	return true
}

// finish derives the workload digest and the rates from what was recorded.
// The digest stays empty unless every input ran.
func (r *report) finish() {
	if r.Attempted > 0 {
		r.OpsFailedPct = 100 * float64(r.Failed) / float64(r.Attempted)
	}
	if r.summarized > 0 {
		r.AttainmentPct = 100 * float64(r.attained) / float64(r.summarized)
	}
	if !slices.Contains(r.InputDigests, "") {
		sum := sha256.Sum256([]byte(strings.Join(r.InputDigests, "\n")))
		r.Digest = hex.EncodeToString(sum[:])
	}
}

// timedPasses runs passes over the inputs, each run right after a
// reference run: at least min passes, and more while the next one, as long
// as the passes so far on average, still ends within the window. It
// returns the passes in which every run succeeded, without their outcomes
// (so finished simulations do not pile up on the heap), and the behaviour
// of every successful run.
func timedPasses(rep *report, setups []setupFunc, t *tracer, ref *reference, window time.Duration, min int) (passes [][]sample, seen behaviour) {
	start := time.Now()
	for n := 0; n < min || time.Since(start)*time.Duration(n+1)/time.Duration(n) <= window; n++ {
		pass := make([]sample, 0, len(setups))
		for k, setup := range setups {
			r := ref.time()
			s := runOnce(setup, t)
			s.input, s.ref = k, r
			if rep.record(s) {
				seen.add(s.outcome)
				s.outcome = nil
				pass = append(pass, s)
			}
		}
		if len(pass) == len(setups) {
			passes = append(passes, pass)
		}
	}
	return passes, seen
}

// measure runs one workload: a warm-up on the first input at a tenth of
// the size, timed passes with tracing off, then (with -trace 1) traced
// passes under a CPU profile. With tracing the window is split evenly
// between the two.
func measure(w *workloadSpec, o options, ref *reference) (*report, error) {
	setups := make([]setupFunc, w.inputs)
	for k := range setups {
		var err error
		if setups[k], err = w.prepare(inputSeed(o.seed, k), o.scale); err != nil {
			return nil, err
		}
	}
	warm, err := w.prepare(inputSeed(o.seed, 0), o.scale/10)
	if err != nil {
		return nil, err
	}
	if s := runOnce(warm, nil); s.err != nil {
		return nil, fmt.Errorf("warm-up: %w", s.err)
	}
	window := time.Duration(o.seconds * float64(time.Second))
	if o.trace == 1 {
		window /= 2
	}
	rep := &report{Workload: w.name, Inputs: w.inputs, InputDigests: make([]string, w.inputs), EndToEnd: map[string]stats.Summary{}}
	passes, _ := timedPasses(rep, setups, nil, ref, window, o.passes)
	series := map[string][]float64{}
	for _, p := range passes {
		for name, v := range passMetrics(p) {
			series[name] = append(series[name], v)
		}
		// Set-ups are short and many, so their median is over every run.
		for _, s := range p {
			series["setup_s"] = append(series["setup_s"], s.calibrated(s.setup))
		}
	}
	for _, m := range slices.Concat(endToEnd, infoMetrics) {
		rep.EndToEnd[m.name] = stats.Summarize(series[m.name], m.unit)
	}
	if o.trace == 1 {
		if err := measureTraced(rep, setups, passes, ref, window, o.workdir); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// measureTraced makes traced passes, at least one and more while they fit
// in the window, each run under its own CPU profile, and fills the
// workload's per-layer metrics. The tracing
// overhead compares each traced run with the untraced runs of its input.
func measureTraced(rep *report, setups []setupFunc, untraced [][]sample, ref *reference, window time.Duration, workdir string) error {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	t := &tracer{epoch: time.Now(), profileBase: filepath.Join(workdir, "cpu-"+rep.Workload)}
	traced, seen := timedPasses(rep, setups, t, ref, window, 1)
	shares, err := cpuShares(t.profiles)
	for _, p := range t.profiles {
		os.Remove(p)
	}
	if len(traced) == 0 {
		return fmt.Errorf("no traced pass succeeded: %s", rep.Errors[len(rep.Errors)-1])
	}
	if err != nil {
		return err
	}
	base := make([][]float64, len(setups))
	for _, p := range untraced {
		for _, s := range p {
			base[s.input] = append(base[s.input], s.calibrated(s.cpu))
		}
	}
	var ratios []float64
	for _, p := range traced {
		for _, s := range p {
			if b := stats.Median(base[s.input]); b > 0 {
				ratios = append(ratios, s.calibrated(s.cpu)/b)
			}
		}
	}
	overhead := 0.0
	if len(ratios) > 0 {
		overhead = 100 * (stats.Median(ratios) - 1)
	}
	rep.PerLayer = layerMetrics(t, len(t.profiles), seen, shares, overhead)
	return nil
}

// cpuTime is the process's user plus system CPU time. Stolen time on a
// virtualized host is not in it, which makes it the steadier clock.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostEnv describes the measuring host. The CPU model is read from
// /proc/cpuinfo only for a snapshot file.
func hostEnv(withCPU bool) map[string]string {
	env := map[string]string{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
	}
	if withCPU {
		if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
					env["cpu_model"] = strings.TrimSpace(v)
					break
				}
			}
		}
	}
	return env
}

// printResult prints one "workload metric value unit" line per metric and
// then the result object as the last line. With traced selects the
// per-layer metrics for the object, otherwise the end-to-end ones; several
// workloads prefix each metric name with its workload.
func printResult(w io.Writer, snap snapshot, traced, prefixed bool) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	for _, rep := range snap.Workloads {
		res.Attempted += rep.Attempted
		res.Failed += rep.Failed
		if rep.Failed > 0 || rep.Attempted == 0 || rep.Digest == "" {
			res.Correct = false
		}
		for _, e := range rep.Errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", rep.Workload, e)
		}
		fmt.Fprintf(w, "%s digest %s\n", rep.Workload, rep.Digest)
		key := func(name string) string {
			if prefixed {
				return rep.Workload + "." + name
			}
			return name
		}
		for i, m := range slices.Concat(endToEnd, infoMetrics) {
			st := rep.EndToEnd[m.name]
			fmt.Fprintf(w, "%s %s %.6g %s (q1 %.6g, q3 %.6g, n %d)\n", rep.Workload, m.name, st.Median, m.unit, st.Q1, st.Q3, st.N)
			if !traced && i < len(endToEnd) {
				res.Metrics[key(m.name)] = metric{st.Median, m.unit}
			}
		}
		for _, m := range perLayer() {
			v, ok := rep.PerLayer[m.name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "%s %s %.6g %s\n", rep.Workload, m.name, v.Value, m.unit)
			res.Metrics[key(m.name)] = metric{v.Value, m.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
