package adaptive

import (
	"strings"
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// testDepth/testWidth are the constructed envelope ceilings the pure-law
// tests tune within (New normally reads them from the controlled system).
const testDepth, testWidth = 8, 4

// strictness ranks decisions for the monotonicity properties: admit <
// degrade < reject.
func strictness(d serve.AdmissionDecision) int {
	switch d {
	case serve.AdmissionAdmit:
		return 0
	case serve.AdmissionDegrade:
		return 1
	case serve.AdmissionReject:
		return 2
	}
	return -1
}

// chatReq builds a fresh admission candidate.
func chatReq() *request.Request {
	r := request.New(1, request.Chat, 0.05, 0, 512, 128, 1)
	r.TTFTSLO = 4.0
	return r
}

// TestEnvelopeMonotoneAndBounded is the tuner's core property: sweeping the
// rolling acceptance upward never lowers either cap, sweeping it downward
// never raises one, and every output lies inside the configured bounds —
// for attaining and for struggling classes alike.
func TestEnvelopeMonotoneAndBounded(t *testing.T) {
	for _, attain := range []float64{0, 0.5, 0.89, 0.9, 1.0} {
		prevD, prevW := 0, 0
		for m := 0.0; m <= 8.0; m += 0.05 {
			d, w := envelope(classSignals{finished: 10, acceptance: m, attainment: attain}, testDepth, testWidth)
			if d < minEnvelope || d > testDepth || w < minEnvelope || w > testWidth {
				t.Fatalf("envelope (%d,%d) at m=%.2f attain=%.2f escapes bounds [%d,%d]x[%d,%d]",
					d, w, m, attain, minEnvelope, testDepth, minEnvelope, testWidth)
			}
			if d < prevD || w < prevW {
				t.Fatalf("envelope shrank as acceptance rose: (%d,%d) -> (%d,%d) at m=%.2f attain=%.2f",
					prevD, prevW, d, w, m, attain)
			}
			prevD, prevW = d, w
		}
	}
}

// TestEnvelopeAttainmentPenalty: missing the windowed attainment floor costs
// exactly one width lane and never touches depth.
func TestEnvelopeAttainmentPenalty(t *testing.T) {
	for m := 0.0; m <= 8.0; m += 0.25 {
		dHi, wHi := envelope(classSignals{finished: 10, acceptance: m, attainment: 1.0}, testDepth, testWidth)
		dLo, wLo := envelope(classSignals{finished: 10, acceptance: m, attainment: 0.0}, testDepth, testWidth)
		if dLo != dHi {
			t.Fatalf("attainment moved depth at m=%.2f: %d vs %d", m, dLo, dHi)
		}
		if wLo > wHi || wHi-wLo > 1 {
			t.Fatalf("low attainment must cost at most one lane at m=%.2f: %d vs %d", m, wLo, wHi)
		}
	}
}

// TestEnvelopeUncalibrated: a class with no windowed finishes keeps the full
// constructed envelope — the tuner only ever acts on evidence.
func TestEnvelopeUncalibrated(t *testing.T) {
	d, w := envelope(classSignals{}, testDepth, testWidth)
	if d != testDepth || w != testWidth {
		t.Fatalf("uncalibrated class got (%d,%d), want the full (%d,%d)", d, w, testDepth, testWidth)
	}
}

// TestDecideMonotoneInQueue: raising queue depth with everything else fixed
// never loosens the outcome.
func TestDecideMonotoneInQueue(t *testing.T) {
	for _, serviceRate := range []float64{0, 2.0} {
		prev := 0
		for q := 0; q <= 60; q++ {
			sig := signals{queued: q, active: 2, arrivalRate: 10, serviceRate: serviceRate}
			dec, reason := decide(sig, chatReq())
			if s := strictness(dec); s < prev {
				t.Fatalf("queue %d loosened the decision to %v (serviceRate=%g)", q, dec, serviceRate)
			} else {
				prev = s
			}
			if dec != serve.AdmissionAdmit && reason == "" {
				t.Fatalf("non-admit decision %v carries no reason", dec)
			}
		}
	}
}

// TestDecideMonotoneInFleet: shrinking the active fleet (the autoscaler's
// cold-start gap) never loosens the outcome for a fixed backlog.
func TestDecideMonotoneInFleet(t *testing.T) {
	prev := -1
	for active := 8; active >= 1; active-- {
		sig := signals{queued: 12, active: active, arrivalRate: 10, serviceRate: 2,
			prefillBacklog: 4096, prefillRate: 2000}
		dec, _ := decide(sig, chatReq())
		if s := strictness(dec); s < prev {
			t.Fatalf("shrinking fleet to %d active loosened the decision to %v", active, dec)
		} else {
			prev = s
		}
	}
}

// TestDecideNeverRejectsBelowSaturation pins the gate's contract with
// healthy fleets: under the reject threshold, with a meetable (or absent)
// TTFT deadline, an arrival is never turned away.
func TestDecideNeverRejectsBelowSaturation(t *testing.T) {
	for q := 0; float64(q)/2 < defaultQueueReject; q++ {
		for _, rate := range []float64{0, 5, 500} {
			sig := signals{queued: q, active: 2, arrivalRate: rate, serviceRate: 1}
			dec, _ := decide(sig, chatReq())
			if dec == serve.AdmissionReject {
				t.Fatalf("rejected at pressure %.1f < %.1f with no unmeetable deadline (rate %g)",
					sig.queuePressure(), defaultQueueReject, rate)
			}
		}
	}
}

// TestDecideRejectsUnmeetable: a calibrated gate turns away a request whose
// TTFT deadline is provably lost, even on an otherwise quiet fleet; waiving
// the deadline or losing calibration withdraws the proof.
func TestDecideRejectsUnmeetable(t *testing.T) {
	sig := signals{queued: 0, active: 1, serviceRate: 2,
		prefillBacklog: 100_000, prefillRate: 10_000}
	r := chatReq() // TTFT SLO 4s; bound is (100000+512)/10000 > 10s
	dec, reason := decide(sig, r)
	if dec != serve.AdmissionReject || !strings.Contains(reason, "ttft unmeetable") {
		t.Fatalf("provably unmeetable request got %v (%q)", dec, reason)
	}
	r2 := chatReq()
	r2.TTFTSLO = 0
	if dec, _ := decide(sig, r2); dec != serve.AdmissionAdmit {
		t.Fatalf("request without a TTFT SLO got %v on a quiet fleet", dec)
	}
	sig.prefillRate = 0
	if dec, _ := decide(sig, chatReq()); dec != serve.AdmissionAdmit {
		t.Fatalf("uncalibrated gate condemned a request: %v", dec)
	}
}

// TestDecideDegradedPassThrough: an already-degraded request is never
// degraded again — in the degrade band it is simply admitted.
func TestDecideDegradedPassThrough(t *testing.T) {
	sig := signals{queued: 10, active: 2, arrivalRate: 50, serviceRate: 1}
	fresh := chatReq()
	if dec, _ := decide(sig, fresh); dec != serve.AdmissionDegrade {
		t.Fatalf("degrade band did not degrade a fresh request: %v", dec)
	}
	degraded := chatReq()
	degraded.Degrade(defaultBestEffortTPOT)
	if dec, _ := decide(sig, degraded); dec != serve.AdmissionAdmit {
		t.Fatalf("already-degraded request got %v in the degrade band", dec)
	}
}

// TestDegradeActuation: Degrade reclasses to the best-effort category,
// relaxes TPOT, waives TTFT, disables speculation — and is idempotent.
func TestDegradeActuation(t *testing.T) {
	r := request.New(7, request.Coding, 0.016, 0, 256, 64, 1)
	r.TTFTSLO = 2.0
	r.Degrade(0.150)
	if !r.Degraded || !r.NoSpec || r.Category != request.Summarization || r.DegradedFrom != request.Coding {
		t.Fatalf("degrade state wrong: %+v", r)
	}
	if r.TPOTSLO != 0.150 || r.TTFTSLO != 0 {
		t.Fatalf("degrade did not relax SLOs: tpot %g ttft %g", r.TPOTSLO, r.TTFTSLO)
	}
	r.Degrade(99)
	if r.DegradedFrom != request.Coding || r.TPOTSLO != 0.150 {
		t.Fatal("second degrade must be a no-op")
	}
}

// TestConfigValidate covers the rejected configurations.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"both disabled", func(c *Config) { c.DisableTuning = true; c.DisableAdmission = true }, "both"},
		{"negative window", func(c *Config) { c.Window = -1 }, "negative"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var cfg Config
			c.mut(&cfg)
			cfg.fill()
			err := cfg.validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("validate = %v, want error containing %q", err, c.want)
			}
		})
	}
}
