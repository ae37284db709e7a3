package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// layers are the buckets CPU samples fold into: every simulator package
// the per-layer metrics name, then "bench" for this program's own frames
// (set-up and tracing), "other" for any other simulator package, and
// "runtime_bg" for samples with no simulator frame at all (GC workers,
// the scheduler).
var layers = []string{
	"lm", "toktree", "core", "engine", "gpu", "sched", "kvcache", "request",
	"serve", "cluster", "metrics", "obs", "faults", "autoscale", "adaptive",
	"workload", "bench", "other", "runtime_bg",
}

const repoPrefix = "adaserve/internal/"

// layerOf returns the bucket of one stack frame's function name, or "" when
// the frame does not decide it: runtime and standard-library frames, and
// the mathutil and obs/hist helpers, whose cost belongs to their caller.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, repoPrefix)
	if !ok {
		return ""
	}
	// The package path ends at the first '.' after its last '/', looking
	// only ahead of any type arguments or receiver, which may hold paths.
	head := rest
	if i := strings.IndexAny(head, "[("); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	dot := strings.IndexByte(head[slash+1:], '.')
	if dot < 0 {
		return "other"
	}
	pkg := head[:slash+1+dot]
	switch pkg {
	case "mathutil", "obs/hist":
		return ""
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// foldTraces reads `go tool pprof -traces` output and returns each layer's
// share of the sampled CPU time in percent. A sample belongs to the layer
// of its innermost deciding frame; the shares of all layers sum to 100.
func foldTraces(r io.Reader) (map[string]float64, error) {
	const separator = "-----------+"
	byLayer := map[string]float64{}
	total := 0.0
	var value float64
	layer, inSample, started := "", false, false
	flush := func() {
		if !inSample {
			return
		}
		if layer == "" {
			layer = "runtime_bg"
		}
		byLayer[layer] += value
		total += value
		inSample, layer = false, ""
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, separator) {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // the header, and sample labels
		}
		fn := fields[0]
		if len(fields) >= 2 && !inSample {
			v, err := parseSampleValue(fields[0])
			if err != nil {
				return nil, err
			}
			value, inSample, fn = v, true, fields[1]
		}
		if inSample && layer == "" {
			layer = layerOf(fn)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, fmt.Errorf("profile holds no samples")
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 100 * byLayer[l] / total
	}
	return shares, nil
}

// parseSampleValue parses a pprof time label such as "10ms" or "1.20s".
func parseSampleValue(s string) (float64, error) {
	i := strings.IndexFunc(s, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i <= 0 {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	v, err := strconv.ParseFloat(s[:i], 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	scale := map[string]float64{
		"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1, "mins": 60, "hrs": 3600,
	}[s[i:]]
	if scale == 0 {
		return 0, fmt.Errorf("bad sample unit in %q", s)
	}
	return v * scale, nil
}

// cpuShares merges CPU profiles and folds them through the toolchain's
// pprof.
func cpuShares(profiles []string) (map[string]float64, error) {
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profiles[0]))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return foldTraces(bytes.NewReader(out))
}
