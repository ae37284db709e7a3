package metrics

import (
	"slices"
	"testing"

	"adaserve/internal/request"
)

// finishedReq fabricates a retired request with the given timing.
func finishedReq(id int, cat request.Category, slo, arrival, firstDecode, done float64, tokens int) *request.Request {
	r := request.New(id, cat, slo, arrival, 16, tokens, uint64(id)+1)
	r.FirstDecodeTime = firstDecode
	r.FirstTokenTime = firstDecode
	r.CommitCount(tokens, done)
	if r.Phase != request.Done {
		panic("fabricated request did not finish")
	}
	return r
}

// recount is a brute-force model of Rolling's trailing window: it keeps
// every recorded arrival and finish and, at each read, drops those older
// than the read's cutoff. Eviction is permanent, so a read whose now goes
// backwards revives nothing, and a finish recorded after a later read stays
// until a read's cutoff passes it.
type recount struct {
	window   float64
	arrivals []float64
	finishes []*request.Request
}

func (m *recount) arrive(ro *Rolling, r *request.Request) {
	ro.Arrived(r)
	m.arrivals = append(m.arrivals, r.ArrivalTime)
}

func (m *recount) finish(ro *Rolling, r *request.Request) {
	ro.Finished(r)
	m.finishes = append(m.finishes, r)
}

// read reads ro at now through Windowed, ArrivalRate and Snapshot and fails
// unless the windowed steps, accepted tokens and arrivals equal the recount.
func (m *recount) read(t *testing.T, ro *Rolling, now float64) RollingStats {
	t.Helper()
	cutoff := now - m.window
	m.arrivals = slices.DeleteFunc(m.arrivals, func(a float64) bool { return a < cutoff })
	m.finishes = slices.DeleteFunc(m.finishes, func(r *request.Request) bool { return r.DoneTime < cutoff })
	var want [request.NumCategories]RollingClass
	for _, r := range m.finishes {
		want[r.Category].WindowFinished++
		want[r.Category].windowSteps += r.VerifySteps
		want[r.Category].windowAccepted += r.AcceptedTokens
	}
	win := ro.Windowed(now)
	span := min(m.window, now)
	if rate := ro.ArrivalRate(now); len(ro.arrivals)-ro.arrHead != len(m.arrivals) || span > 0 && rate != float64(len(m.arrivals))/span {
		t.Fatalf("t=%g: window arrivals %d at rate %g, recount %d", now, len(ro.arrivals)-ro.arrHead, rate, len(m.arrivals))
	}
	st := ro.Snapshot(now, 0, 0)
	if win != st.RollingWindow {
		t.Fatalf("t=%g: Windowed and Snapshot disagree: %+v vs %+v", now, win, st.RollingWindow)
	}
	for cat, w := range want {
		got := win.PerClass[cat]
		if got.WindowFinished != w.WindowFinished || got.windowSteps != w.windowSteps || got.windowAccepted != w.windowAccepted {
			t.Fatalf("t=%g class %v: finished/steps/accepted %d/%d/%d, recount %d/%d/%d", now, request.Category(cat),
				got.WindowFinished, got.windowSteps, got.windowAccepted, w.WindowFinished, w.windowSteps, w.windowAccepted)
		}
	}
	return st
}

func TestRollingZeroValues(t *testing.T) {
	ro := NewRolling(10)
	if ro.window != 10 {
		t.Fatalf("window %g", ro.window)
	}
	st := ro.Snapshot(0, 0, 0)
	if st.Attainment() != 0 || st.WindowTTFTAttainment() != 0 || st.WindowAttainment() != 0 {
		t.Fatalf("empty snapshot has non-zero rates: %+v", st)
	}
	var cls RollingClass
	if cls.WindowAttainment() != 0 || cls.WindowAcceptance() != 0 {
		t.Fatalf("empty class has non-zero rates: %+v", cls)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive window accepted")
		}
	}()
	NewRolling(0)
}

func TestRollingWindowAttainmentRates(t *testing.T) {
	ro := NewRolling(10)
	good := finishedReq(0, request.Chat, 0.05, 0, 0.5, 1, 20)
	bad := finishedReq(1, request.Chat, 0.05, 0, 2, 8, 20)
	ro.Arrived(good)
	ro.Arrived(bad)
	ro.Finished(good)
	ro.Finished(bad)
	st := ro.Snapshot(9, 3, 4)
	if st.WindowAttainment() != 0.5 || st.Attainment() != 0.5 {
		t.Fatalf("attainment %.2f window %.2f, want 0.5", st.Attainment(), st.WindowAttainment())
	}
	if st.Queued != 3 || st.Running != 4 {
		t.Fatalf("occupancy %d/%d", st.Queued, st.Running)
	}
	cls := st.PerClass[request.Chat]
	if cls.WindowFinished != 2 || cls.windowAttained != 1 || cls.WindowAttainment() != 0.5 {
		t.Fatalf("class %d/%d attained, window %.2f", cls.windowAttained, cls.WindowFinished, cls.WindowAttainment())
	}
}

func TestRollingWindowEviction(t *testing.T) {
	ro := NewRolling(10)
	m := &recount{window: 10}
	// One attained finish at t=1 (fast decode), one violating at t=8 (slow).
	a := finishedReq(0, request.Chat, 0.05, 0, 0.5, 1, 20) // 25 ms/tok: attains
	b := finishedReq(1, request.Chat, 0.05, 1.5, 2, 8, 20) // 300 ms/tok: violates
	a.VerifySteps, a.AcceptedTokens = 5, 20
	b.VerifySteps, b.AcceptedTokens = 12, 20
	m.arrive(ro, a)
	m.arrive(ro, b)
	m.finish(ro, a)
	m.finish(ro, b)

	st := m.read(t, ro, 9)
	if cls := st.PerClass[request.Chat]; cls.WindowAcceptance() != 40.0/17 {
		t.Fatalf("window acceptance %g, want 40/17", cls.WindowAcceptance())
	}
	if st.Finished != 2 || st.Attained != 1 {
		t.Fatalf("cumulative %d/%d", st.Attained, st.Finished)
	}
	if st.WindowFinished != 2 || st.windowAttained != 1 {
		t.Fatalf("window before eviction %d/%d", st.windowAttained, st.WindowFinished)
	}

	// At t=12 the window [2,12] has dropped the t=1 finish and both
	// arrivals.
	st = m.read(t, ro, 12)
	if st.WindowFinished != 1 || st.windowAttained != 0 {
		t.Fatalf("window after eviction %d/%d", st.windowAttained, st.WindowFinished)
	}
	if st.Finished != 2 || st.Attained != 1 {
		t.Fatalf("eviction touched cumulative counters: %d/%d", st.Attained, st.Finished)
	}
	if cls := st.PerClass[request.Chat]; cls.WindowFinished != 1 {
		t.Fatalf("per-class window %d", cls.WindowFinished)
	}

	// A read that goes back in time revives nothing.
	if st = m.read(t, ro, 9); st.WindowFinished != 1 || ro.ArrivalRate(9) != 0 {
		t.Fatalf("backwards read: window finished %d arrival rate %g", st.WindowFinished, ro.ArrivalRate(9))
	}

	// Far future: the window is empty, cumulative view intact.
	st = m.read(t, ro, 100)
	if st.WindowFinished != 0 || st.windowAttained != 0 || st.WindowGoodput != 0 {
		t.Fatalf("stale window %+v", st)
	}
}

// TestRollingOutOfOrderFinishes feeds finishes with non-monotone times (as
// a multi-instance driver does) and expects exact window membership,
// including a finish older than an earlier read's cutoff and a read whose
// now goes backwards (a gate decision at an arrival instant after a tick at
// a later high-water mark).
func TestRollingOutOfOrderFinishes(t *testing.T) {
	ro := NewRolling(5)
	m := &recount{window: 5}
	times := []float64{4, 2, 6, 1, 5}
	cats := []request.Category{request.Coding, request.Chat, request.Coding, request.Summarization, request.Chat}
	for i, done := range times {
		r := finishedReq(i, cats[i], 1.0, 0.1*float64(i), done-0.5, done, 4)
		r.VerifySteps, r.AcceptedTokens = i+2, 2*i+3
		m.arrive(ro, r)
		m.finish(ro, r)
	}
	// Window [2,7]: finishes at 2,4,5,6 stay, 1 is evicted.
	st := m.read(t, ro, 7)
	if st.WindowFinished != 4 {
		t.Fatalf("window %d, want 4", st.WindowFinished)
	}
	// Window [3.5, 8.5]: 4, 5, 6 remain.
	st = m.read(t, ro, 8.5)
	if st.WindowFinished != 3 {
		t.Fatalf("window %d, want 3", st.WindowFinished)
	}
	// A late finish at t=3 lands behind the last cutoff and stays through a
	// backwards read at t=7 (cutoff 2); a read at t=12 evicts everything.
	late := finishedReq(len(times), request.Coding, 1.0, 2.5, 2.6, 3, 4)
	late.VerifySteps, late.AcceptedTokens = 9, 11
	m.arrive(ro, late)
	m.finish(ro, late)
	for _, now := range []float64{7, 7.5, 12} {
		m.read(t, ro, now)
	}
}

// TestRollingMatchesSummarize requires the terminal rolling view to equal
// Summarize over the same population — the convergence contract Snapshot
// events advertise.
func TestRollingMatchesSummarize(t *testing.T) {
	var reqs []*request.Request
	ro := NewRolling(30)
	cats := []request.Category{request.Coding, request.Chat, request.Summarization}
	for i := 0; i < 12; i++ {
		slo := 0.05
		if i%3 == 0 {
			slo = 0.01 // a third violate
		}
		r := finishedReq(i, cats[i%3], slo, float64(i)*0.3, float64(i)*0.3+0.2, float64(i)*0.3+1.5, 8+i)
		reqs = append(reqs, r)
		ro.Arrived(r)
		ro.Finished(r)
	}
	sum := Summarize("test", reqs, Breakdown{})
	// At t=10 every finish is still inside the 30 s window, so the window's
	// TTFT and per-class counts cover the whole population.
	win := ro.Windowed(10)
	if win.windowTTFTAttained != sum.TTFTAttained {
		t.Fatalf("window ttft attained %d vs %d", win.windowTTFTAttained, sum.TTFTAttained)
	}
	for cat, cs := range sum.PerCategory {
		cls := win.PerClass[cat]
		if cls.WindowFinished != cs.Requests || cls.windowAttained != cs.attained {
			t.Fatalf("class %v: %d/%d vs %d/%d", cat, cls.windowAttained, cls.WindowFinished, cs.attained, cs.Requests)
		}
	}
	st := ro.Snapshot(100, 0, 0)
	if st.Admitted != sum.Requests || st.Finished != sum.Finished || st.Attained != sum.Attained {
		t.Fatalf("admitted/finished/attained %d/%d/%d vs %d/%d/%d",
			st.Admitted, st.Finished, st.Attained, sum.Requests, sum.Finished, sum.Attained)
	}
	if st.Attainment() != sum.Attainment() {
		t.Fatalf("attainment %.9f vs %.9f", st.Attainment(), sum.Attainment())
	}
	if st.Goodput != sum.Goodput {
		t.Fatalf("goodput %.9f vs %.9f", st.Goodput, sum.Goodput)
	}
	if st.TPOTTail != sum.TPOTTail || st.TTFTTail != sum.TTFTTail {
		t.Fatalf("tails %+v/%+v vs %+v/%+v", st.TPOTTail, st.TTFTTail, sum.TPOTTail, sum.TTFTTail)
	}
}

// TestRollingBoundedRetention regression-tests the eviction leak: evict must
// zero aged-out records and compaction must keep the finish and arrival
// backing arrays proportional to the window population, so a long run's Rolling does not
// accumulate every finish ever recorded. Before the fix, evict resliced from
// the head and the array grew without bound.
func TestRollingBoundedRetention(t *testing.T) {
	const window, step = 1.0, 0.01
	ro := NewRolling(window)
	pop := int(window/step) + 1 // finishes (and arrivals) alive inside one window
	maxLen, maxArr := 0, 0
	for i := 0; i < 20_000; i++ {
		done := float64(i) * step
		r := finishedReq(i, request.Chat, 1, done-0.5, done-0.2, done, 4)
		ro.Arrived(r)
		ro.Finished(r)
		ro.Snapshot(done, 0, 0) // evicts everything older than done-window
		if n := len(ro.recent); n > maxLen {
			maxLen = n
		}
		if n := len(ro.arrivals); n > maxArr {
			maxArr = n
		}
		if ro.win.WindowFinished > pop {
			t.Fatalf("window holds %d finishes, expected at most %d", ro.win.WindowFinished, pop)
		}
		if n := len(ro.arrivals) - ro.arrHead; n > pop {
			t.Fatalf("window holds %d arrivals, expected at most %d", n, pop)
		}
	}
	// Compaction bounds both slices at ~2× the window population,
	// independent of run length.
	if bound := 2*pop + 2; maxLen > bound || maxArr > bound {
		t.Fatalf("backing slices grew to %d finishes / %d arrivals with window population %d (bound %d)",
			maxLen, maxArr, pop, bound)
	}
}

// TestRollingBoundedMemorySmoke streams one million finishes through a
// rolling view and pins the bounded-memory contract: the cumulative
// distributions live in fixed-size histograms and the window index retains
// ~2x the window population, so retention never scales with run length.
func TestRollingBoundedMemorySmoke(t *testing.T) {
	ro := NewRolling(30)
	r := finishedReq(0, request.Chat, 0.05, 0, 0.5, 1, 20)
	ro.Arrived(r)
	const n = 1_000_000
	for i := 0; i < n; i++ {
		// 10ms apart: ~3000 finishes live in the 30s window at any time.
		r.DoneTime = 1 + float64(i)*0.01
		ro.Finished(r)
		if i%4096 == 0 {
			ro.Snapshot(r.DoneTime, 0, 0)
		}
	}
	st := ro.Snapshot(1+float64(n)*0.01, 0, 0)
	if st.Finished != n {
		t.Fatalf("finished %d, want %d", st.Finished, n)
	}
	if st.TPOTTail.Count != n {
		t.Fatalf("TPOT digest count %d, want %d", st.TPOTTail.Count, n)
	}
	if st.WindowFinished > 3001 {
		t.Fatalf("window population %d never evicted", st.WindowFinished)
	}
	// The backing array holds the live window plus the batch admitted since
	// the last eviction, compacted at 2x — far below the 1M finishes seen.
	if c := cap(ro.recent); c > 1<<14 {
		t.Fatalf("rolling view retained %d records for a bounded window", c)
	}
}

func TestPeakRate(t *testing.T) {
	type mark struct {
		add      int
		now      float64
		replicas int
	}
	cases := []struct {
		name  string
		marks []mark
		want  float64
	}{
		{"one interval", []mark{{10, 5, 2}}, 1},
		{"zero dt skips", []mark{{10, 0, 2}}, 0},
		{"backwards mark skips", []mark{{4, 2, 1}, {100, 1, 1}}, 2},
		{"zero replicas skips", []mark{{10, 5, 0}}, 0},
		{"skipped interval's count is dropped", []mark{{10, 5, 0}, {1, 10, 1}}, 0.2},
		{"zero count", []mark{{0, 5, 2}}, 0},
		{"peak kept across marks", []mark{{20, 5, 2}, {2, 10, 2}, {0, 15, 2}}, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var p PeakRate
			for _, m := range c.marks {
				p.Add(m.add)
				p.Mark(m.now, m.replicas)
			}
			if p.Peak() != c.want {
				t.Fatalf("peak %g, want %g", p.Peak(), c.want)
			}
		})
	}
}
