// adaserve-trace generates and inspects the simulator's workload traces.
//
// Subcommands:
//
//	adaserve-trace gen -spec bursty.spec [-o out.trace] [-seed N] [-duration S] [-model llama]
//	    compile a declarative workload spec into a trace file (format v1);
//	    deterministic per seed.
//	adaserve-trace stats file.trace
//	    print a trace's header, per-class arrival counts and length/rate
//	    summary.
//
// Invoked with flags only (no subcommand), it keeps the original shape
// synthesis: per-bin arrival counts of the Figure 7 real-world shape or
// the Figure 13 synthetic per-category trace, as CSV for plotting. Invalid
// invocations — an unknown subcommand, a malformed spec or trace file, a
// format-version mismatch, or a rate, duration or bin width that is not
// positive and finite —
// exit non-zero with a one-line error.
//
// Usage:
//
//	adaserve-trace gen -spec internal/experiments/testdata/specs/bursty.spec -o bursty.trace
//	adaserve-trace stats bursty.trace
//	adaserve-trace -kind real -rps 4.0 -duration 1200 -bin 30
//	adaserve-trace -kind synthetic -duration 360
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"adaserve/internal/experiments"
	"adaserve/internal/mathutil"
	"adaserve/internal/trace"
	"adaserve/internal/workload"
)

func main() {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		if err := dispatch(os.Stdout, os.Args[1], os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}

	kind := flag.String("kind", "real", "trace kind: real (Fig. 7) or synthetic (Fig. 13)")
	rps := flag.Float64("rps", 4.0, "mean request rate (real) / peak rate (synthetic)")
	duration := flag.Float64("duration", 1200, "trace duration in seconds")
	bin := flag.Float64("bin", 30, "histogram bin width in seconds")
	seed := flag.Uint64("seed", 1, "random seed")
	flag.Parse()

	if err := run(os.Stdout, *kind, *rps, *duration, *bin, *seed, flag.Args()); err != nil {
		log.Fatal(err)
	}
}

// dispatch routes a subcommand invocation. It is the whole CLI behind
// argument splitting, so subcommand behavior is testable without spawning
// a process.
func dispatch(w io.Writer, cmd string, args []string) error {
	switch cmd {
	case "gen":
		return runGen(w, args)
	case "stats":
		return runStats(w, args)
	}
	return fmt.Errorf("unknown subcommand %q (gen, stats; or flags only for shape synthesis)", cmd)
}

// resolveModel maps the -model flag to an experiment setup, matching
// adaserve-sim's naming.
func resolveModel(name string) (experiments.ModelSetup, error) {
	switch name {
	case "llama":
		return experiments.Llama70B(), nil
	case "qwen":
		return experiments.Qwen32B(), nil
	}
	return experiments.ModelSetup{}, fmt.Errorf("unknown model %q (llama, qwen)", name)
}

// runGen compiles a workload spec into a trace file.
func runGen(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	specPath := fs.String("spec", "", "workload spec file to compile (required)")
	out := fs.String("o", "", "output trace file (default: stdout)")
	seed := fs.Uint64("seed", 0, "compilation seed (0: the spec's)")
	duration := fs.Float64("duration", 0, "trace duration in seconds (0: the spec's)")
	model := fs.String("model", "llama", "model setup resolving class SLOs: llama or qwen")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (gen takes only flags: -spec, -o, -seed, -duration, -model)", fs.Arg(0))
	}
	if *specPath == "" {
		return fmt.Errorf("gen needs -spec <file>")
	}
	setup, err := resolveModel(*model)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return err
	}
	spec, err := trace.ParseSpec(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", *specPath, err)
	}
	tr, err := trace.Compile(spec, trace.CompileOptions{
		BaselineLatency: setup.BaselineLatency(),
		Duration:        *duration,
		Seed:            *seed,
	})
	if err != nil {
		return err
	}
	if *out == "" {
		_, err := io.WriteString(w, tr.Format())
		return err
	}
	if err := os.WriteFile(*out, []byte(tr.Format()), 0o644); err != nil {
		return err
	}
	st := tr.Stats()
	fmt.Fprintf(w, "wrote %s: %d arrivals over %.1fs (mean %.2f rps)\n",
		*out, st.Arrivals, tr.Duration(), st.MeanRPS)
	return nil
}

// runStats prints a trace file's header and summary.
func runStats(w io.Writer, args []string) error {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return fmt.Errorf("stats wants exactly one trace file argument")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	tr, err := trace.Parse(string(data))
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	h := tr.Header
	fmt.Fprintf(w, "format:   v%d (%s)\n", h.Version, h.TimeUnit)
	fmt.Fprintf(w, "seed:     %d\n", h.Seed)
	if h.Source != "" {
		fmt.Fprintf(w, "source:   %s\n", h.Source)
	}
	st := tr.Stats()
	fmt.Fprintf(w, "arrivals: %d over %.1fs (mean %.2f rps)\n", st.Arrivals, tr.Duration(), st.MeanRPS)
	fmt.Fprintf(w, "lengths:  mean prompt %.0f, mean output %.0f tokens\n", st.MeanPrompt, st.MeanOutput)
	for i, c := range h.Classes {
		fmt.Fprintf(w, "class %d:  %s tpot=%gs ttft=%gs — %d arrivals\n",
			c.ID, c.Name, c.TPOT, c.TTFT, st.PerClass[i])
	}
	return nil
}

// run validates the legacy flag set and writes the requested shape CSV. It
// is the flags-only CLI behind flag parsing, so the validation table is
// testable without spawning a process.
func run(w io.Writer, kind string, rps, duration, bin float64, seed uint64, args []string) error {
	if len(args) > 0 {
		return fmt.Errorf("unexpected argument %q (adaserve-trace takes only flags: -kind, -rps, -duration, -bin, -seed)", args[0])
	}
	if err := experiments.CheckPositive("rps", "rate", rps); err != nil {
		return err
	}
	if err := experiments.CheckPositive("duration", "duration", duration); err != nil {
		return err
	}
	if !(bin > 0 && bin <= duration) {
		return fmt.Errorf("-bin %g: need a bin width in (0, duration]", bin)
	}

	rng := mathutil.NewRNG(seed)
	switch kind {
	case "real":
		ts := workload.RealTrace(rng, rps, duration)
		fmt.Fprintf(w, "# real trace: %d arrivals, mean %.2f rps\n",
			len(ts), float64(len(ts))/duration)
		fmt.Fprintln(w, "time_s,requests")
		for i, c := range workload.BinCounts(ts, duration, bin) {
			fmt.Fprintf(w, "%.0f,%d\n", float64(i)*bin, c)
		}
	case "synthetic":
		perCat := workload.SyntheticCategoryTrace(rng, rps, duration)
		names := []string{"coding", "chat", "summarization"}
		fmt.Fprintln(w, "time_s,coding,chat,summarization")
		bins := make([][]int, len(perCat))
		for i, ts := range perCat {
			bins[i] = workload.BinCounts(ts, duration, bin)
		}
		for j := range bins[0] {
			fmt.Fprintf(w, "%.0f", float64(j)*bin)
			for i := range bins {
				fmt.Fprintf(w, ",%d", bins[i][j])
			}
			fmt.Fprintln(w)
		}
		for i, ts := range perCat {
			fmt.Fprintf(w, "# %s: %d arrivals\n", names[i], len(ts))
		}
	default:
		return fmt.Errorf("unknown trace kind %q (real, synthetic)", kind)
	}
	return nil
}
