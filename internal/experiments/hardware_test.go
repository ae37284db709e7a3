package experiments

import (
	"strings"
	"testing"

	"adaserve/internal/gpu"
)

func TestHardwareSensitivity(t *testing.T) {
	rows, err := HardwareSensitivity(Llama70B(), []gpu.Hardware{gpu.A100, gpu.H100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	var a100, h100 *HardwareRow
	for i := range rows {
		switch {
		case strings.Contains(rows[i].hardware, "A100"):
			a100 = &rows[i]
		case strings.Contains(rows[i].hardware, "H100"):
			h100 = &rows[i]
		}
	}
	// H100's higher bandwidth drops the baseline; its higher FLOPs-to-
	// bandwidth ratio pushes the knee (and so the budget) outward — the
	// hardware-awareness the paper motivates.
	if h100.baseline >= a100.baseline {
		t.Fatalf("H100 baseline %.1fms not below A100 %.1fms",
			1e3*h100.baseline, 1e3*a100.baseline)
	}
	if h100.knee <= a100.knee {
		t.Fatalf("H100 knee %d not beyond A100 knee %d", h100.knee, a100.knee)
	}
	if h100.budget <= a100.budget {
		t.Fatalf("H100 budget %d not beyond A100 budget %d", h100.budget, a100.budget)
	}
}

func TestHardwareSensitivitySkipsUnfitPlatforms(t *testing.T) {
	// A platform the cost model rejects (here one with no memory at all)
	// is skipped, and with only unfit platforms the call errors.
	unfit := gpu.Hardware{Name: "unfit"}
	if _, err := HardwareSensitivity(Llama70B(), []gpu.Hardware{unfit}); err == nil {
		t.Fatal("an unfit-only platform list should error")
	}
	rows, err := HardwareSensitivity(Llama70B(), []gpu.Hardware{unfit, gpu.A100})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || !strings.Contains(rows[0].hardware, "A100") {
		t.Fatalf("rows %+v", rows)
	}
}

func TestRenderHardware(t *testing.T) {
	rows, err := HardwareSensitivity(qwen32B(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderHardware(qwen32B(), rows)
	if !strings.Contains(out, "A100") || !strings.Contains(out, "budget") {
		t.Fatalf("render:\n%s", out)
	}
}
