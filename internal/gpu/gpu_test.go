package gpu

import (
	"math"
	"testing"
)

// l4 is a small 24 GB inference GPU: too small for the 70B target at the
// paper's TP=4.
var l4 = Hardware{
	Name:                "L4-24GB",
	memBandwidth:        300e9 * 0.55,
	flops:               121e12 * 0.50,
	memCapacity:         24e9,
	launchOverhead:      8e-6,
	graphLaunchOverhead: 2e-6,
}

func TestHardwareValidate(t *testing.T) {
	for _, hw := range []Hardware{A100, H100, l4} {
		if err := hw.validate(); err != nil {
			t.Errorf("%s: %v", hw.Name, err)
		}
	}
	bad := A100
	bad.memBandwidth = 0
	if bad.validate() == nil {
		t.Error("zero bandwidth should not validate")
	}
}

func TestModelSpecDerived(t *testing.T) {
	if got := Llama70B.weightBytes(); math.Abs(got-70.6e9*2) > 1 {
		t.Errorf("WeightBytes = %g", got)
	}
	// 2 (K,V) x 80 layers x 8 heads x 128 dim x 2 bytes = 327,680 B/token.
	if got := Llama70B.kvBytesPerToken(); got != 327680 {
		t.Errorf("KVBytesPerToken = %g", got)
	}
	if got := Llama70B.flopsPerToken(); got != 2*70.6e9 {
		t.Errorf("FLOPsPerToken = %g", got)
	}
	for _, m := range []ModelSpec{Llama70B, Llama1B, Qwen32B, Qwen05B} {
		if err := m.validate(); err != nil {
			t.Errorf("%s: %v", m.name, err)
		}
	}
}

func TestNewCostModelRejectsOversizedModel(t *testing.T) {
	if _, err := NewCostModel(A100, Llama70B, 1); err == nil {
		t.Fatal("70B on one 80GB GPU should not fit")
	}
	if _, err := NewCostModel(A100, Llama70B, 4); err != nil {
		t.Fatalf("70B on 4 GPUs should fit: %v", err)
	}
	if _, err := NewCostModel(l4, Llama70B, 4); err == nil {
		t.Fatal("70B on 4 24GB GPUs should not fit")
	}
}

func TestNewCostModelRejectsBadTP(t *testing.T) {
	if _, err := NewCostModel(A100, Llama1B, 0); err == nil {
		t.Fatal("TP=0 should be rejected")
	}
}

func TestBaselineLatencyRealistic(t *testing.T) {
	// Llama-70B FP16 on 4xA100 decodes at roughly 30-40 ms/token in real
	// deployments; the calibrated model must land there for the paper's
	// 40 ms MLPerf SLO (1.2x baseline) to be meaningful.
	cm := MustCostModel(A100, Llama70B, 4)
	base := cm.BaselineLatency(512)
	if base < 0.025 || base > 0.045 {
		t.Fatalf("baseline latency %.1f ms outside the plausible 25-45 ms band", 1e3*base)
	}
}

func TestDraftStepLatencyRealistic(t *testing.T) {
	// A ~1B draft decodes at single-digit milliseconds, NOT the ~1 ms a
	// naive roofline predicts: small kernels cannot saturate HBM.
	cm := MustCostModel(A100, Llama1B, 1)
	step := cm.BaselineLatency(512)
	if step < 0.002 || step > 0.012 {
		t.Fatalf("draft step latency %.2f ms outside the plausible 2-12 ms band", 1e3*step)
	}
}

func TestForwardLatencyMonotoneInTokens(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	prev := 0.0
	for _, tok := range []int{1, 10, 100, 500, 2000} {
		lat := cm.ForwardLatencyPure(BatchShape{Tokens: tok, Seqs: tok, KVTokens: tok * 512})
		if lat <= prev {
			t.Fatalf("latency not increasing at %d tokens: %g <= %g", tok, lat, prev)
		}
		prev = lat
	}
}

func TestForwardLatencyFlatBelowKnee(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	knee := cm.RooflineKnee()
	if knee < 20 {
		t.Fatalf("knee %d implausibly small", knee)
	}
	l1 := cm.ForwardLatencyPure(BatchShape{Tokens: 1, Seqs: 1})
	lHalf := cm.ForwardLatencyPure(BatchShape{Tokens: knee / 2, Seqs: knee / 2})
	if lHalf > l1*1.05 {
		t.Fatalf("latency below knee should be nearly flat: %.2fms vs %.2fms", 1e3*lHalf, 1e3*l1)
	}
	lPast := cm.ForwardLatencyPure(BatchShape{Tokens: knee * 4, Seqs: knee * 4})
	if lPast < l1*1.5 {
		t.Fatalf("latency far past knee should grow: %.2fms vs %.2fms", 1e3*lPast, 1e3*l1)
	}
}

func TestForwardLatencyZeroTokens(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	if cm.ForwardLatency(BatchShape{}) != 0 {
		t.Error("empty shape should cost zero")
	}
}

func TestForwardLatencyPanicsOnInvalidShape(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("negative token shape did not panic")
		}
	}()
	cm.ForwardLatency(BatchShape{Tokens: -1})
}

func TestBatchShapeValidate(t *testing.T) {
	if (BatchShape{Tokens: 4, Seqs: 2, KVTokens: 10}).validate() != nil {
		t.Error("valid shape rejected")
	}
	if (BatchShape{Tokens: 1, Seqs: 2}).validate() == nil {
		t.Error("seqs > tokens accepted")
	}
	if (BatchShape{Tokens: -1}).validate() == nil {
		t.Error("negative tokens accepted")
	}
}

func TestCUDAGraphCaptureThenReplay(t *testing.T) {
	cm := MustCostModel(A100, Llama1B, 1)
	shape := BatchShape{Tokens: 8, Seqs: 8, KVTokens: 256}
	first := cm.ForwardLatency(shape)
	second := cm.ForwardLatency(shape)
	if second >= first {
		t.Fatalf("graph replay should be cheaper: first %.3gms then %.3gms", 1e3*first, 1e3*second)
	}
	// Every later call of the shape replays at the same cost.
	if third := cm.ForwardLatency(shape); third != second {
		t.Fatalf("second replay cost %.3gms, first replay %.3gms", 1e3*third, 1e3*second)
	}
	// A different shape captures anew: it costs what its first call costs
	// on a fresh model, and its own replay is cheaper.
	other := BatchShape{Tokens: 9, Seqs: 9, KVTokens: 256}
	capture := cm.ForwardLatency(other)
	if fresh := MustCostModel(A100, Llama1B, 1).ForwardLatency(other); capture != fresh {
		t.Fatalf("new shape cost %.3gms, a first capture costs %.3gms", 1e3*capture, 1e3*fresh)
	}
	if replay := cm.ForwardLatency(other); replay >= capture {
		t.Fatalf("new shape's replay %.3gms not cheaper than its capture %.3gms", 1e3*replay, 1e3*capture)
	}
}

func TestCUDAGraphDisabled(t *testing.T) {
	cm := MustCostModel(A100, Llama1B, 1)
	cm.UseCUDAGraphs = false
	shape := BatchShape{Tokens: 8, Seqs: 8}
	if cm.ForwardLatency(shape) != cm.ForwardLatency(shape) {
		t.Fatal("without graphs, identical shapes should cost the same")
	}
	// Without graphs every call pays the plain launch, which is what a
	// capture costs.
	if got, capture := cm.ForwardLatency(shape), MustCostModel(A100, Llama1B, 1).ForwardLatency(shape); got != capture {
		t.Fatalf("graphs disabled cost %.3gms, a capture %.3gms", 1e3*got, 1e3*capture)
	}
}

func TestTPScaling(t *testing.T) {
	cm2 := MustCostModel(A100, Qwen32B, 2)
	cm4 := MustCostModel(A100, Qwen32B, 4)
	l2 := cm2.BaselineLatency(512)
	l4 := cm4.BaselineLatency(512)
	if l4 >= l2 {
		t.Fatalf("more TP should be faster: TP2 %.2fms, TP4 %.2fms", 1e3*l2, 1e3*l4)
	}
	// But not perfectly linear (collectives).
	if l4 < l2/2 {
		t.Fatalf("TP scaling better than linear: TP2 %.2fms, TP4 %.2fms", 1e3*l2, 1e3*l4)
	}
}

func TestKVReadCostGrows(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	small := cm.ForwardLatencyPure(BatchShape{Tokens: 8, Seqs: 8, KVTokens: 8 * 128})
	large := cm.ForwardLatencyPure(BatchShape{Tokens: 8, Seqs: 8, KVTokens: 8 * 8192})
	if large <= small {
		t.Fatal("longer contexts should cost more")
	}
}

func TestKVCapacityTokens(t *testing.T) {
	cm := MustCostModel(A100, Llama70B, 4)
	cap10 := cm.KVCapacityTokens(0.10)
	cap50 := cm.KVCapacityTokens(0.50)
	if cap10 <= cap50 {
		t.Fatal("larger reserve should shrink capacity")
	}
	// 4x80GB minus 141GB of weights leaves >100GB: several hundred
	// thousand tokens at ~328KB/token.
	if cap10 < 100000 {
		t.Fatalf("KV capacity %d implausibly small", cap10)
	}
}

func TestBandwidthUtilSmallModels(t *testing.T) {
	big := MustCostModel(A100, Llama70B, 4)
	small := MustCostModel(A100, Qwen05B, 1)
	if big.bandwidthUtil != 1 {
		t.Fatalf("70B util = %g, want 1", big.bandwidthUtil)
	}
	if small.bandwidthUtil >= 0.5 {
		t.Fatalf("0.5B util = %g, want < 0.5", small.bandwidthUtil)
	}
}
