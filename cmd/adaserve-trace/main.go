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
// The Figure 7 real-world and Figure 13 synthetic arrival shapes are
// rendered by adaserve-bench -exp fig7,fig13. Invalid invocations — no
// subcommand, an unknown one, a malformed spec or trace file, a
// format-version mismatch, or a duration that is not positive and finite —
// exit non-zero with a one-line error.
//
// Usage:
//
//	adaserve-trace gen -spec internal/experiments/testdata/specs/bursty.spec -o bursty.trace
//	adaserve-trace stats bursty.trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"adaserve/internal/experiments"
	"adaserve/internal/trace"
)

func main() {
	var cmd string
	var args []string
	if len(os.Args) > 1 {
		cmd, args = os.Args[1], os.Args[2:]
	}
	if err := dispatch(os.Stdout, cmd, args); err != nil {
		log.Fatal(err)
	}
}

// errNoSubcommand rejects an invocation that names no subcommand.
var errNoSubcommand = errors.New("adaserve-trace needs a subcommand: gen or stats (adaserve-bench -exp fig7,fig13 renders the arrival shapes)")

// dispatch routes a subcommand invocation. It is the whole CLI behind
// argument splitting, so subcommand behavior is testable without spawning
// a process.
func dispatch(w io.Writer, cmd string, args []string) error {
	switch {
	case cmd == "gen":
		return runGen(w, args)
	case cmd == "stats":
		return runStats(w, args)
	case cmd == "" || strings.HasPrefix(cmd, "-"):
		return errNoSubcommand
	}
	return fmt.Errorf("unknown subcommand %q (gen, stats)", cmd)
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
	setup, err := experiments.ParseModel(*model)
	if err != nil {
		return err
	}
	tr, err := trace.CompileFile(*specPath, trace.CompileOptions{
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
