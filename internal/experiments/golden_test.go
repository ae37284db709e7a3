package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// updateGolden regenerates the committed fixtures instead of comparing:
//
//	go test ./internal/experiments -run Golden -update
var updateGolden = flag.Bool("update", false, "rewrite golden fixtures instead of comparing")

// goldenRow is one grid cell of the golden bench run, reduced to the
// metrics the paper reports. Every field is a pure function of the fixed
// seed, so the marshaled fixture is byte-stable across runs, platforms and
// worker counts.
type goldenRow struct {
	Experiment string  `json:"experiment"`
	System     string  `json:"system,omitempty"`
	Split      string  `json:"split,omitempty"`
	Router     string  `json:"router,omitempty"`
	Mix        string  `json:"mix,omitempty"`
	X          float64 `json:"x,omitempty"`

	Requests       int     `json:"requests"`
	Finished       int     `json:"finished"`
	Attainment     float64 `json:"attainment"`
	TTFTAttainment float64 `json:"ttftAttainment"`
	Goodput        float64 `json:"goodput"`
	Throughput     float64 `json:"throughput"`
	MeanAccepted   float64 `json:"meanAccepted"`
	P50TPOT        float64 `json:"p50TPOT"`
	P99TPOT        float64 `json:"p99TPOT"`
	P999TPOT       float64 `json:"p999TPOT"`

	TransferCount  int     `json:"transferCount,omitempty"`
	TransferSec    float64 `json:"transferSec,omitempty"`
	TransferBytes  float64 `json:"transferBytes,omitempty"`
	PrefillTTFTAtt float64 `json:"prefillTTFTAtt,omitempty"`
	DecodeTPOTAtt  float64 `json:"decodeTPOTAtt,omitempty"`

	// Adaptive-grid columns (zero and omitted for every other experiment,
	// so adding them left bench.json byte-identical).
	Config   string  `json:"config,omitempty"`
	Profile  string  `json:"profile,omitempty"`
	MaxTTFT  float64 `json:"maxTTFT,omitempty"`
	Degraded int     `json:"degraded,omitempty"`
	Rejected int     `json:"rejected,omitempty"`

	// Chaos-grid columns (likewise zero and omitted for every other
	// experiment, so adding them left bench.json byte-identical).
	Scenario  string  `json:"scenario,omitempty"`
	Recovery  string  `json:"recovery,omitempty"`
	Lost      int     `json:"lost,omitempty"`
	Retried   int     `json:"retried,omitempty"`
	Dropped   int     `json:"dropped,omitempty"`
	Hedged    int     `json:"hedged,omitempty"`
	Fallbacks int     `json:"fallbacks,omitempty"`
	MTTR      float64 `json:"mttr,omitempty"`

	// Prefix-grid columns (likewise zero and omitted for every other
	// experiment, so adding them left bench.json byte-identical).
	HitRate     float64 `json:"hitRate,omitempty"`
	SavedTokens int     `json:"savedTokens,omitempty"`
	PrefixEvict int     `json:"prefixEvict,omitempty"`
	Reloads     int     `json:"reloads,omitempty"`
	ReloadStall float64 `json:"reloadStall,omitempty"`
}

// goldenOpts is the tiny fixed-seed grid: short enough for CI, long enough
// that every subsystem (speculation, selection, verification, routing,
// migration) executes thousands of times.
func goldenOpts() RunOptions {
	return RunOptions{
		Seed:     1,
		Duration: 6,
		systems:  []SystemKind{SysAdaServe, SysVLLMSpec6, SysVLLM},
		Parallel: 4,
	}
}

// goldenGrid runs the fixture grid in-process: a Figure 8/9 sweep subset
// plus the full disaggregation experiment, both on the Llama-70B setup.
func goldenGrid(t *testing.T) []goldenRow {
	t.Helper()
	setup := Llama70B()
	var rows []goldenRow

	pts, err := Figure8and9(setup, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		s := p.Sum.Aggregate
		rows = append(rows, goldenRow{
			Experiment: "fig8-9", System: string(p.System), X: p.x,
			Requests: s.Requests, Finished: s.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput, Throughput: s.Throughput,
			MeanAccepted: s.MeanAcceptedPerStep,
			P50TPOT:      s.P50TPOT(), P99TPOT: s.P99TPOT(), P999TPOT: s.P999TPOT(),
		})
	}

	dpts, err := Disaggregation(setup, goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dpts {
		s := p.Sum
		row := goldenRow{
			Experiment: "disagg", Split: p.split, Router: p.router, Mix: p.mix,
			Requests: s.Aggregate.Requests, Finished: s.Aggregate.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput(), Throughput: s.Aggregate.Throughput,
			MeanAccepted: s.Aggregate.MeanAcceptedPerStep,
			P50TPOT:      s.Aggregate.P50TPOT(), P99TPOT: s.Aggregate.P99TPOT(), P999TPOT: s.Aggregate.P999TPOT(),
			TransferCount: s.Transfer.Count, TransferSec: s.Transfer.Time,
			TransferBytes: s.Transfer.Bytes,
		}
		for _, rs := range s.Roles {
			switch rs.Role {
			case "prefill":
				row.PrefillTTFTAtt = rs.TTFTAttainment()
			case "decode":
				row.DecodeTPOTAtt = rs.TPOTAttainment()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// compareGolden marshals rows and compares them against the named fixture.
func compareGolden(t *testing.T, name string, rows []goldenRow) {
	t.Helper()
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	compareFixture(t, name, append(got, '\n'))
}

// compareFixture compares got byte-for-byte against the named fixture (or
// rewrites it under -update).
func compareFixture(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first differing line for a readable failure.
		gl := bytes.Split(got, []byte("\n"))
		wl := bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("golden mismatch at line %d:\n got: %s\nwant: %s\n(regenerate with -update if intentional)",
					i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("golden mismatch: output has %d lines, fixture %d (regenerate with -update if intentional)",
			len(gl), len(wl))
	}
}

// TestGoldenBenchGrid replays the fixture grid and compares the marshaled
// result byte-for-byte against the committed fixture. Any intentional
// behavior change must regenerate the fixture with -update and justify the
// diff in review; any unintentional drift — a determinism break, an
// accidental semantic change to a scheduler, router or the migration path —
// fails here first.
func TestGoldenBenchGrid(t *testing.T) {
	compareGolden(t, "bench.json", goldenGrid(t))
}

// TestGoldenAdaptiveGrid pins the flash-crowd sweep the same way: the
// static row certifies the controller-off path still replays the exact
// baseline trajectory, and the adaptive rows pin every gate decision — a
// changed degrade/reject count is a semantic change to the admission law
// and must be justified alongside a fixture regeneration.
func TestGoldenAdaptiveGrid(t *testing.T) {
	// Longer than goldenOpts so the spike genuinely saturates the fleet and
	// the fixture pins non-trivial degrade/reject counts; still sub-second.
	pts, err := AdaptiveControl(Llama70B(), RunOptions{Seed: 1, Duration: 24, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, p := range pts {
		s := p.Sum
		row := goldenRow{
			Experiment: "adaptive", Config: p.config, Profile: p.profile,
			Requests: s.Aggregate.Requests, Finished: s.Aggregate.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput(), Throughput: s.Aggregate.Throughput,
			MeanAccepted: s.Aggregate.MeanAcceptedPerStep,
			P50TPOT:      s.Aggregate.P50TPOT(), P99TPOT: s.Aggregate.P99TPOT(), P999TPOT: s.Aggregate.P999TPOT(),
			MaxTTFT: s.Aggregate.MaxTTFT,
		}
		if s.Admission != nil {
			row.Degraded = s.Admission.Degraded
			row.Rejected = s.Admission.Rejected
		}
		rows = append(rows, row)
	}
	compareGolden(t, "adaptive.json", rows)
}
