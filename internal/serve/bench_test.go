package serve

import (
	"testing"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// BenchmarkRunFleet drives 128 stub instances (stepSystem: no model, no KV)
// under Poisson arrivals, so the driver's own per-turn work — choosing the
// next instance, dispatching, re-keying — is most of the cost. It reports
// the run's CPU per serving iteration as ns/iter.
func BenchmarkRunFleet(b *testing.B) {
	const instances, arrivals, rate = 128, 2048, 200.0
	rng := mathutil.NewRNG(1)
	reqs := make([]*request.Request, arrivals)
	at := 0.0
	for i := range reqs {
		at += rng.ExpFloat64() / rate
		reqs[i] = request.New(i, request.Chat, 0.05, at, 16, 8, uint64(i)+1)
	}
	iters := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := NewServer(newRoundRobin(instances), Options{})
		if err != nil {
			b.Fatal(err)
		}
		src, err := NewTraceSource(request.CloneAll(reqs))
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := srv.Run(src)
		if err != nil {
			b.Fatal(err)
		}
		iters += res.Iterations
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(iters), "ns/iter")
}
