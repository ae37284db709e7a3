package serve

import "testing"

// TestSharedRunBoundDefaults is the single home of the run-bound defaults
// shared by every run: serve.Options resolves zero values here, and every
// experiments.RunSpec passes zero bounds through this fill — so the 24h /
// 50M numbers live in exactly one place.
func TestSharedRunBoundDefaults(t *testing.T) {
	var o Options
	o.fill()
	if o.MaxSimTime != DefaultMaxSimTime || DefaultMaxSimTime != 24*3600.0 {
		t.Fatalf("MaxSimTime default %g (const %g)", o.MaxSimTime, float64(DefaultMaxSimTime))
	}
	if o.MaxIterations != DefaultMaxIterations || DefaultMaxIterations != 50_000_000 {
		t.Fatalf("MaxIterations default %d (const %d)", o.MaxIterations, DefaultMaxIterations)
	}
	if o.Window != DefaultSnapshotWindow {
		t.Fatalf("Window default %g", o.Window)
	}
	// Explicit values survive fill.
	o = Options{MaxSimTime: 7, MaxIterations: 9, Window: 3}
	o.fill()
	if o.MaxSimTime != 7 || o.MaxIterations != 9 || o.Window != 3 {
		t.Fatalf("fill clobbered explicit options: %+v", o)
	}
}

func TestQueueOrdersByReadyThenID(t *testing.T) {
	var q Queue
	var got []int
	add := func(ready float64, id int) {
		q.Schedule(ready, id, func() { got = append(got, id) })
	}
	add(2.0, 1)
	add(1.0, 9)
	add(1.0, 3)
	add(2.0, 0)
	add(0.5, 5)
	if q.Len() != 5 {
		t.Fatalf("len %d", q.Len())
	}
	for q.Len() > 0 {
		q.pop().deliver()
	}
	want := []int{5, 3, 9, 0, 1}
	for i, id := range want {
		if got[i] != id {
			t.Fatalf("delivery order %v, want %v", got, want)
		}
	}
}
