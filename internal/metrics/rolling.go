package metrics

import (
	"adaserve/internal/obs/hist"
	"adaserve/internal/request"
)

// RollingClass is one SLO class's (request category's) share of the
// trailing window: the requests that finished inside it, how many of them
// attained their SLO, and their verification steps and committed tokens.
type RollingClass struct {
	WindowFinished              int
	windowAttained              int
	windowSteps, windowAccepted int
}

// WindowAttainment returns the class's attainment over the trailing window.
func (c RollingClass) WindowAttainment() float64 {
	if c.WindowFinished == 0 {
		return 0
	}
	return float64(c.windowAttained) / float64(c.WindowFinished)
}

// WindowAcceptance returns the class's committed tokens per verification
// step over the trailing window.
func (c RollingClass) WindowAcceptance() float64 {
	if c.windowSteps == 0 {
		return 0
	}
	return float64(c.windowAccepted) / float64(c.windowSteps)
}

// RollingWindow is the trailing window's finishes, overall and per SLO
// class: what the autoscaler and the adaptive controller read on every
// decision, without digesting a histogram.
type RollingWindow struct {
	// WindowFinished counts requests that finished inside the trailing
	// window; windowAttained/windowTTFTAttained of them met their TPOT/TTFT
	// SLO (TTFT is the responsiveness signal SLO-feedback autoscaling
	// scales prefill capacity on).
	WindowFinished                     int
	windowAttained, windowTTFTAttained int
	// PerClass indexes the per-category split by request.Category.
	PerClass [request.NumCategories]RollingClass
}

// WindowAttainment returns the attainment over the trailing window.
func (w RollingWindow) WindowAttainment() float64 {
	if w.WindowFinished == 0 {
		return 0
	}
	return float64(w.windowAttained) / float64(w.WindowFinished)
}

// WindowTTFTAttainment returns the TTFT attainment over the trailing window.
func (w RollingWindow) WindowTTFTAttainment() float64 {
	if w.WindowFinished == 0 {
		return 0
	}
	return float64(w.windowTTFTAttained) / float64(w.WindowFinished)
}

// RollingStats is one point-in-time view of a run in progress: occupancy,
// cumulative attainment and goodput (converging to the terminal Summary as
// the run drains), and the trailing window. Produced incrementally by
// Rolling; carried by the serving driver's periodic Snapshot events.
type RollingStats struct {
	// Time is the simulated instant of the snapshot.
	Time float64
	// Queued/Running are the instantaneous occupancy across all serving
	// instances at snapshot time.
	Queued, Running int
	// Admitted counts every request that entered the system so far;
	// Finished/Attained those that retired (and met their TPOT SLO).
	Admitted, Finished, Attained int
	// Goodput is attaining requests' output tokens per second over the span
	// from first arrival to the latest finish, matching the terminal
	// Summary's definition; WindowGoodput covers finishes inside the
	// trailing window.
	Goodput, WindowGoodput float64
	// TPOTTail and TTFTTail digest the cumulative per-request TPOT / TTFT
	// distributions over every finish so far; at the final snapshot they
	// equal the terminal Summary's TPOTTail/TTFTTail (digests depend only on
	// bucket counts and exact extremes, both order-independent).
	// WindowTPOTTail covers only the finishes still inside the trailing
	// window; its Min/Max report the cumulative envelope, not the window's
	// (sliding-window eviction does not re-scan for new extremes).
	TPOTTail, TTFTTail, WindowTPOTTail hist.Digest
	RollingWindow
}

// Attainment returns the cumulative SLO attainment over finished requests.
// As the run drains (every request finished) it equals the terminal
// Summary.Attainment, whose denominator is all requests.
func (s RollingStats) Attainment() float64 {
	if s.Finished == 0 {
		return 0
	}
	return float64(s.Attained) / float64(s.Finished)
}

// finishRec is one finished request's contribution, kept until it ages out
// of the window.
type finishRec struct {
	time     float64
	cat      request.Category
	attained bool
	ttft     bool
	tokens   int
	steps    int
	accepted int
	tpot     float64
}

// Rolling computes RollingStats incrementally from request arrival and
// finish notifications, so online drivers get windowed attainment and
// goodput without re-scanning the request population. It is the streaming
// counterpart of Summarize: at end of run (every admitted request finished)
// its cumulative fields equal the terminal Summary's.
//
// Finish notifications may arrive slightly out of global time order (a
// multi-instance driver reports at per-instance iteration boundaries);
// Rolling keeps its window index sorted, so eviction stays exact.
type Rolling struct {
	window       float64
	firstArrival float64
	haveArrival  bool
	lastDone     float64

	admitted   int
	finished   int
	attained   int
	goodTokens int

	// recent holds the finishes still inside the window, sorted by time in
	// recent[head:]; the window counters in win and winGoodTokens are
	// maintained on insert and evict. Eviction advances head and compaction
	// moves the live window to the front once the dead prefix dominates, so
	// a long run's backing array stays proportional to the window
	// population instead of growing with (and retaining) every finish ever
	// recorded.
	recent        []finishRec
	head          int
	win           RollingWindow
	winGoodTokens int

	// arrivals holds arrival times in recording order; arrivals[arrHead:]
	// are still inside the window. Eviction stops at the first in-window
	// arrival, and the evicted prefix is compacted away once it is more than
	// half the slice.
	arrivals []float64
	arrHead  int

	// tpotHist/ttftHist stream the cumulative per-request TPOT/TTFT
	// distributions; winTPOT covers only the trailing window (evictions
	// retract their TPOT). All three are fixed-size, so rolling-metrics
	// memory stays bounded no matter how many requests finish.
	tpotHist *hist.Histogram
	ttftHist *hist.Histogram
	winTPOT  *hist.Histogram
}

// NewRolling returns a Rolling with the given trailing-window width in
// simulated seconds (window must be positive).
func NewRolling(window float64) *Rolling {
	if window <= 0 {
		panic("metrics: rolling window must be positive")
	}
	return &Rolling{
		window:   window,
		tpotHist: hist.New(),
		ttftHist: hist.New(),
		winTPOT:  hist.New(),
	}
}

// Arrived records a request entering the system. It pins the span start
// (first arrival) the goodput denominators use and enters the arrival
// window.
func (ro *Rolling) Arrived(r *request.Request) {
	ro.admitted++
	ro.arrivals = append(ro.arrivals, r.ArrivalTime)
	if !ro.haveArrival || r.ArrivalTime < ro.firstArrival {
		ro.firstArrival = r.ArrivalTime
		ro.haveArrival = true
	}
}

// Finished records a retired request (Phase Done). Call exactly once per
// request.
func (ro *Rolling) Finished(r *request.Request) {
	ro.finished++
	if r.DoneTime > ro.lastDone {
		ro.lastDone = r.DoneTime
	}
	rec := finishRec{
		time: r.DoneTime, cat: r.Category, attained: r.AttainedSLO(), ttft: r.AttainedTTFT(),
		tokens: r.OutputLen(), steps: r.VerifySteps, accepted: r.AcceptedTokens, tpot: r.AvgTPOT(r.DoneTime),
	}
	if rec.attained {
		ro.attained++
		ro.goodTokens += rec.tokens
	}
	ro.tpotHist.Observe(rec.tpot)
	ro.winTPOT.Observe(rec.tpot)
	if t := r.TTFT(); t >= 0 {
		ro.ttftHist.Observe(t)
	}
	ro.insert(rec)
	ro.count(rec, 1)
}

// count adds rec's contribution to the window counters (sign 1) or
// retracts it (sign -1).
func (ro *Rolling) count(rec finishRec, sign int) {
	w, cls := &ro.win, &ro.win.PerClass[rec.cat]
	w.WindowFinished += sign
	cls.WindowFinished += sign
	cls.windowSteps += sign * rec.steps
	cls.windowAccepted += sign * rec.accepted
	if rec.ttft {
		w.windowTTFTAttained += sign
	}
	if rec.attained {
		w.windowAttained += sign
		cls.windowAttained += sign
		ro.winGoodTokens += sign * rec.tokens
	}
}

// insert keeps recent[head:] sorted by finish time (stable for equal times:
// new records go after existing ones, so eviction order is deterministic).
func (ro *Rolling) insert(rec finishRec) {
	at := len(ro.recent)
	for at > ro.head && ro.recent[at-1].time > rec.time {
		at--
	}
	ro.recent = append(ro.recent, finishRec{})
	copy(ro.recent[at+1:], ro.recent[at:])
	ro.recent[at] = rec
}

// compact moves the live window to the front of the backing array when the
// evicted prefix is at least as long as the live tail, keeping eviction
// amortized O(1) while bounding retention at ~2× the window population.
func (ro *Rolling) compact() {
	if ro.head == 0 || ro.head < len(ro.recent)-ro.head {
		return
	}
	n := copy(ro.recent, ro.recent[ro.head:])
	tail := ro.recent[n:]
	for i := range tail {
		tail[i] = finishRec{}
	}
	ro.recent = ro.recent[:n]
	ro.head = 0
}

// evict drops finishes and arrivals that aged out of the window ending at
// now.
func (ro *Rolling) evict(now float64) {
	cutoff := now - ro.window
	for ro.head < len(ro.recent) && ro.recent[ro.head].time < cutoff {
		rec := ro.recent[ro.head]
		ro.recent[ro.head] = finishRec{}
		ro.head++
		ro.winTPOT.Remove(rec.tpot)
		ro.count(rec, -1)
	}
	ro.compact()
	for ro.arrHead < len(ro.arrivals) && ro.arrivals[ro.arrHead] < cutoff {
		ro.arrHead++
	}
	if ro.arrHead > len(ro.arrivals)/2 {
		ro.arrivals = append(ro.arrivals[:0], ro.arrivals[ro.arrHead:]...)
		ro.arrHead = 0
	}
}

// Windowed evicts at now and returns the trailing window's finishes
// without digesting the histograms, for callers that read the window on
// every decision.
func (ro *Rolling) Windowed(now float64) RollingWindow {
	ro.evict(now)
	return ro.win
}

// ArrivalRate evicts at now and returns the offered load in requests per
// second: the arrivals inside the trailing window over its width, or over
// the elapsed run when that is shorter.
func (ro *Rolling) ArrivalRate(now float64) float64 {
	ro.evict(now)
	span := ro.window
	if now < span {
		span = now
	}
	if span <= 0 {
		return 0
	}
	return float64(len(ro.arrivals)-ro.arrHead) / span
}

// Snapshot materializes the rolling view at simulated time now. queued and
// running are the caller's instantaneous occupancy counts (the driver sums
// them over instance pools).
func (ro *Rolling) Snapshot(now float64, queued, running int) RollingStats {
	win := ro.Windowed(now)
	st := RollingStats{
		Time:   now,
		Queued: queued, Running: running,
		Admitted: ro.admitted, Finished: ro.finished, Attained: ro.attained,
		RollingWindow:  win,
		TPOTTail:       ro.tpotHist.Digest(),
		TTFTTail:       ro.ttftHist.Digest(),
		WindowTPOTTail: ro.winTPOT.Digest(),
	}
	// Span and division mirror Summarize exactly, so the terminal snapshot's
	// goodput is bit-equal to the terminal Summary's.
	if ro.haveArrival {
		if dur := ro.lastDone - ro.firstArrival; dur > 0 {
			st.Goodput = float64(ro.goodTokens) / dur
		}
	}
	if span := ro.window; span > 0 {
		if ro.haveArrival && now-ro.firstArrival < span {
			span = now - ro.firstArrival
		}
		if span > 0 {
			st.WindowGoodput = float64(ro.winGoodTokens) / span
		}
	}
	return st
}

// PeakRate calibrates sustainable per-replica capacity from observed work:
// counts accumulate between marks, and each mark folds the interval's rate
// per replica into a running peak. Underestimating capacity only
// over-provisions or over-gates, so the peak is the safe side. The zero
// value is ready to use, with its first interval starting at time 0.
type PeakRate struct {
	n    int
	last float64
	peak float64
}

// Add counts n units of work (finishes, prompt tokens) in the current
// interval.
func (p *PeakRate) Add(n int) { p.n += n }

// Mark closes the interval ending at now over the given replica count and
// starts the next one. An interval with no elapsed time or no replicas
// leaves the peak unchanged.
func (p *PeakRate) Mark(now float64, replicas int) {
	if dt := now - p.last; dt > 0 && replicas > 0 {
		if rate := float64(p.n) / dt / float64(replicas); rate > p.peak {
			p.peak = rate
		}
	}
	p.n = 0
	p.last = now
}

// Peak returns the highest per-replica rate seen at any mark.
func (p *PeakRate) Peak() float64 { return p.peak }
