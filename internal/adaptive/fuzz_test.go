package adaptive

import (
	"math"
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// FuzzAdmission throws arbitrary saturation states and arrivals at the pure
// admission law and checks the contracts the property tests pin pointwise:
//
//   - the decision is always one of admit/degrade/reject, with a reason
//     exactly when it is not admit;
//   - below the reject saturation threshold, a request is rejected only if
//     its TTFT deadline is provably unmeetable;
//   - a provably unmeetable deadline is always rejected — the gate never
//     admits a request whose SLO is already lost;
//   - one more queued request never loosens the decision;
//   - the envelope law stays inside its bounds for the same class mix.
func FuzzAdmission(f *testing.F) {
	f.Add(0, 2, 2, 0, 512, 4.0, 2.0, 0.0, 4.0, 1.0, uint8(1), false)
	f.Add(24, 2, 2, 8192, 512, 40.0, 2.0, 2000.0, 4.0, 0.5, uint8(0), false)
	f.Add(7, 1, 4, 100000, 2048, 12.0, 1.5, 10000.0, 0.25, 0.9, uint8(2), false)
	f.Add(10, 2, 2, 0, 128, 50.0, 1.0, 0.0, 0.0, 0.0, uint8(1), true)
	f.Add(200, 1, 1, 65536, 4096, 500.0, 0.0, 0.0, 4.0, 1.0, uint8(0), false)
	// committed (replicas paid for, >= active) is not a signal; it stays in
	// the argument list so the checked-in corpus keeps its shape.
	f.Fuzz(func(t *testing.T, queued, active, committed, backlog, promptLen int,
		arrivalRate, serviceRate, prefillRate, ttftSLO, attain float64,
		classIdx uint8, degraded bool) {
		for _, v := range []float64{arrivalRate, serviceRate, prefillRate, ttftSLO, attain} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1e12 {
				t.Skip("out of the signal domain")
			}
		}
		if queued < 0 || queued > 1e6 || active < 0 || active > 1e4 || committed < active ||
			committed > 1e4 || backlog < 0 || backlog > 1e9 || promptLen < 1 || promptLen > 1e6 {
			t.Skip("out of the signal domain")
		}

		cat := request.Category(int(classIdx) % request.NumCategories)
		r := request.New(1, cat, 0.05, 0, promptLen, 64, 1)
		r.TTFTSLO = ttftSLO
		if degraded {
			r.Degrade(defaultBestEffortTPOT)
		}
		sig := signals{queued: queued, active: active,
			arrivalRate: arrivalRate, serviceRate: serviceRate,
			prefillBacklog: backlog, prefillRate: prefillRate}

		dec, reason := decide(sig, r)
		if s := strictness(dec); s < 0 {
			t.Fatalf("decision %v outside the enum", dec)
		} else if (reason == "") != (dec == serve.AdmissionAdmit) {
			t.Fatalf("decision %v with reason %q", dec, reason)
		}
		_, doomed := unmeetableTTFT(sig, r)
		if doomed && dec != serve.AdmissionReject {
			t.Fatalf("admitted a provably unmeetable deadline: %v (%+v)", dec, sig)
		}
		if !doomed && sig.queuePressure() < defaultQueueReject && dec == serve.AdmissionReject {
			t.Fatalf("rejected below saturation with a meetable deadline: %q (%+v)", reason, sig)
		}

		busier := sig
		busier.queued++
		decBusier, _ := decide(busier, r)
		if strictness(decBusier) < strictness(dec) {
			t.Fatalf("one more queued request loosened %v to %v (%+v)", dec, decBusier, sig)
		}

		d, w := envelope(classSignals{finished: queued, acceptance: arrivalRate, attainment: attain}, testDepth, testWidth)
		if d < minEnvelope || d > testDepth || w < minEnvelope || w > testWidth {
			t.Fatalf("envelope (%d,%d) escapes bounds", d, w)
		}
	})
}
