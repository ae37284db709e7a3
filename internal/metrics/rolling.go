package metrics

import (
	"adaserve/internal/obs/hist"
	"adaserve/internal/request"
)

// RollingClass is one SLO class's (request category's) share of a rolling
// view: cumulative counters over the whole run so far plus counters over the
// trailing window.
type RollingClass struct {
	// Finished/Attained/GoodTokens accumulate over every finish so far.
	Finished, Attained int
	GoodTokens         int
	// WindowFinished/WindowAttained/WindowGoodTokens cover requests that
	// finished inside the trailing window; WindowSteps/WindowAccepted are
	// their verification steps and committed tokens.
	WindowFinished, WindowAttained int
	WindowGoodTokens               int
	WindowSteps, WindowAccepted    int
}

// WindowAttainment returns the class's attainment over the trailing window.
func (c RollingClass) WindowAttainment() float64 {
	if c.WindowFinished == 0 {
		return 0
	}
	return float64(c.WindowAttained) / float64(c.WindowFinished)
}

// WindowAcceptance returns the class's committed tokens per verification
// step over the trailing window.
func (c RollingClass) WindowAcceptance() float64 {
	if c.WindowSteps == 0 {
		return 0
	}
	return float64(c.WindowAccepted) / float64(c.WindowSteps)
}

// RollingStats is one point-in-time view of a run in progress: occupancy,
// cumulative attainment/goodput (converging to the terminal Summary as the
// run drains), and windowed attainment/goodput over the trailing window —
// overall and per SLO class. Produced incrementally by Rolling; carried by
// the serving driver's periodic Snapshot events.
type RollingStats struct {
	// Time is the simulated instant of the snapshot; Window the trailing
	// window width the Window* fields cover.
	Time, Window float64
	// Queued/Running are the instantaneous occupancy across all serving
	// instances at snapshot time.
	Queued, Running int
	// Admitted counts every request that entered the system so far;
	// Finished/Attained/TTFTAttained those that retired (and met their
	// TPOT/TTFT SLOs).
	Admitted, Finished, Attained, TTFTAttained int
	// GoodTokens/AllTokens are output tokens from attaining / all finished
	// requests.
	GoodTokens, AllTokens int
	// Goodput and Throughput are tokens/second over the span from first
	// arrival to the latest finish, matching the terminal Summary's
	// definitions.
	Goodput, Throughput float64
	// MeanAcceptedPerStep is committed tokens per verification step over
	// finished requests.
	MeanAcceptedPerStep float64
	// WindowFinished/WindowAttained/WindowGoodput cover requests finishing
	// inside the trailing window; WindowTTFTAttained of them met their TTFT
	// SLO (the responsiveness signal SLO-feedback autoscaling scales prefill
	// capacity on).
	WindowFinished, WindowAttained int
	WindowTTFTAttained             int
	WindowGoodput                  float64
	// WindowArrivals counts arrivals inside the trailing window (the offered
	// load the controllers size against).
	WindowArrivals int
	// TPOTTail and TTFTTail digest the cumulative per-request TPOT / TTFT
	// distributions over every finish so far; at the final snapshot they
	// equal the terminal Summary's TPOTTail/TTFTTail (digests depend only on
	// bucket counts and exact extremes, both order-independent).
	// WindowTPOTTail covers only the finishes still inside the trailing
	// window; its Min/Max report the cumulative envelope, not the window's
	// (sliding-window eviction does not re-scan for new extremes).
	TPOTTail, TTFTTail, WindowTPOTTail hist.Digest
	// PerClass indexes the per-category split by request.Category.
	PerClass [request.NumCategories]RollingClass
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

// WindowAttainment returns the attainment over the trailing window.
func (s RollingStats) WindowAttainment() float64 {
	if s.WindowFinished == 0 {
		return 0
	}
	return float64(s.WindowAttained) / float64(s.WindowFinished)
}

// WindowTTFTAttainment returns the TTFT attainment over the trailing window.
func (s RollingStats) WindowTTFTAttainment() float64 {
	if s.WindowFinished == 0 {
		return 0
	}
	return float64(s.WindowTTFTAttained) / float64(s.WindowFinished)
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

	admitted     int
	finished     int
	attained     int
	ttftAttained int
	goodTokens   int
	allTokens    int
	totalSteps   int
	totalAccept  int
	perClass     [request.NumCategories]RollingClass

	// recent holds the finishes still inside the window, sorted by time in
	// recent[head:]; window counters are maintained on insert and evict.
	// Eviction advances head and compaction moves the live window to the
	// front once the dead prefix dominates, so a long run's backing array
	// stays proportional to the window population instead of growing with
	// (and retaining) every finish ever recorded.
	recent        []finishRec
	head          int
	winFinished   int
	winAttained   int
	winTTFT       int
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
	attained := r.AttainedSLO()
	tokens := r.OutputLen()
	cls := &ro.perClass[r.Category]
	cls.Finished++
	ro.allTokens += tokens
	if attained {
		ro.attained++
		ro.goodTokens += tokens
		cls.Attained++
		cls.GoodTokens += tokens
	}
	ttft := r.AttainedTTFT()
	if ttft {
		ro.ttftAttained++
		ro.winTTFT++
	}
	ro.totalSteps += r.VerifySteps
	ro.totalAccept += r.AcceptedTokens
	tpot := r.AvgTPOT(r.DoneTime)
	ro.tpotHist.Observe(tpot)
	ro.winTPOT.Observe(tpot)
	if t := r.TTFT(); t >= 0 {
		ro.ttftHist.Observe(t)
	}

	rec := finishRec{
		time: r.DoneTime, cat: r.Category, attained: attained, ttft: ttft,
		tokens: tokens, steps: r.VerifySteps, accepted: r.AcceptedTokens, tpot: tpot,
	}
	ro.insert(rec)
	ro.winFinished++
	cls.WindowFinished++
	cls.WindowSteps += rec.steps
	cls.WindowAccepted += rec.accepted
	if attained {
		ro.winAttained++
		ro.winGoodTokens += tokens
		cls.WindowAttained++
		cls.WindowGoodTokens += tokens
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
		cls := &ro.perClass[rec.cat]
		ro.winFinished--
		ro.winTPOT.Remove(rec.tpot)
		cls.WindowFinished--
		cls.WindowSteps -= rec.steps
		cls.WindowAccepted -= rec.accepted
		if rec.ttft {
			ro.winTTFT--
		}
		if rec.attained {
			ro.winAttained--
			ro.winGoodTokens -= rec.tokens
			cls.WindowAttained--
			cls.WindowGoodTokens -= rec.tokens
		}
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

// Windowed evicts at now and returns the per-class view and the windowed
// arrival count without digesting the histograms, for callers that read the
// window on every decision.
func (ro *Rolling) Windowed(now float64) ([request.NumCategories]RollingClass, int) {
	ro.evict(now)
	return ro.perClass, len(ro.arrivals) - ro.arrHead
}

// Snapshot materializes the rolling view at simulated time now. queued and
// running are the caller's instantaneous occupancy counts (the driver sums
// them over instance pools).
func (ro *Rolling) Snapshot(now float64, queued, running int) RollingStats {
	ro.evict(now)
	st := RollingStats{
		Time:   now,
		Window: ro.window,
		Queued: queued, Running: running,
		Admitted: ro.admitted, Finished: ro.finished,
		Attained: ro.attained, TTFTAttained: ro.ttftAttained,
		GoodTokens: ro.goodTokens, AllTokens: ro.allTokens,
		WindowFinished: ro.winFinished, WindowAttained: ro.winAttained,
		WindowTTFTAttained: ro.winTTFT,
		WindowArrivals:     len(ro.arrivals) - ro.arrHead,
		TPOTTail:           ro.tpotHist.Digest(),
		TTFTTail:           ro.ttftHist.Digest(),
		WindowTPOTTail:     ro.winTPOT.Digest(),
		PerClass:           ro.perClass,
	}
	// Span and division mirror Summarize exactly, so the terminal snapshot's
	// goodput/throughput are bit-equal to the terminal Summary's.
	if ro.haveArrival {
		if dur := ro.lastDone - ro.firstArrival; dur > 0 {
			st.Goodput = float64(ro.goodTokens) / dur
			st.Throughput = float64(ro.allTokens) / dur
		}
	}
	if ro.totalSteps > 0 {
		st.MeanAcceptedPerStep = float64(ro.totalAccept) / float64(ro.totalSteps)
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
