package experiments

import (
	"fmt"
	"strings"

	"adaserve/internal/gpu"
	"adaserve/internal/sched"
)

// HardwareRow reports how AdaServe's profiling-derived parameters move
// across GPU platforms — the paper's hardware-awareness claim: the token
// budget is a property of the platform's roofline, not a constant.
type HardwareRow struct {
	hardware string
	// baseline is the unloaded per-token decode latency (seconds).
	baseline float64
	// knee is the profiled roofline knee in tokens.
	knee int
	// budget is the verification token budget (sched.VerifyBudget).
	budget int
	// draftStep is the draft model's per-step latency (seconds).
	draftStep float64
}

// HardwareSensitivity profiles one model setup across GPU platforms. The
// model must fit each platform at the setup's TP degree; platforms it does
// not fit are skipped.
func HardwareSensitivity(setup ModelSetup, platforms []gpu.Hardware) ([]HardwareRow, error) {
	if len(platforms) == 0 {
		platforms = []gpu.Hardware{gpu.A100, gpu.H100}
	}
	var rows []HardwareRow
	for _, hw := range platforms {
		cm, err := gpu.NewCostModel(hw, setup.Target, setup.TargetTP)
		if err != nil {
			continue // model does not fit this platform at this TP
		}
		_, budget, err := sched.VerifyBudget(cm)
		if err != nil {
			return nil, fmt.Errorf("%s on %s: %w", setup.Name, hw.Name, err)
		}
		dc, err := gpu.NewCostModel(hw, setup.draft, 1)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HardwareRow{
			hardware:  hw.Name,
			baseline:  cm.BaselineLatency(512),
			knee:      cm.RooflineKnee(),
			budget:    budget,
			draftStep: dc.BaselineLatency(512),
		})
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("experiments: %s fits no given platform at TP=%d", setup.Name, setup.TargetTP)
	}
	return rows, nil
}

// RenderHardware formats hardware-sensitivity rows.
func RenderHardware(setup ModelSetup, rows []HardwareRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (TP=%d)\n", setup.Name, setup.TargetTP)
	fmt.Fprintf(&b, "%-12s %14s %8s %8s %14s\n", "hardware", "baseline ms", "knee", "budget", "draft step ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %14.1f %8d %8d %14.2f\n",
			r.hardware, 1e3*r.baseline, r.knee, r.budget, 1e3*r.draftStep)
	}
	return b.String()
}
