package metrics

import (
	"math"
	"strings"
	"testing"

	"adaserve/internal/lm"
	"adaserve/internal/request"
)

// finished builds a completed request with the given decode span.
func finished(id int, cat request.Category, slo, start, end float64, tokens int) *request.Request {
	r := request.New(id, cat, slo, start, 64, tokens, uint64(id))
	r.Phase = request.Decoding
	r.FirstDecodeTime = start
	toks := make([]lm.Token, tokens)
	r.Commit(toks, end)
	r.VerifySteps = tokens / 2
	return r
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize("x", nil, Breakdown{})
	if s.Requests != 0 || s.Attainment() != 0 {
		t.Fatal("empty summary should be zero-valued")
	}
}

func TestSummarizeAttainment(t *testing.T) {
	reqs := []*request.Request{
		finished(1, request.Chat, 0.05, 0, 0.4, 10), // 40ms <= 50ms: attained
		finished(2, request.Chat, 0.05, 0, 0.8, 10), // 80ms: violated
	}
	s := Summarize("sys", reqs, Breakdown{})
	if s.Requests != 2 || s.Finished != 2 || s.Attained != 1 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.Attainment()-0.5) > 1e-12 {
		t.Fatalf("attainment %g", s.Attainment())
	}
}

func TestSummarizeUnfinishedCountsAsViolation(t *testing.T) {
	r := request.New(1, request.Chat, 0.05, 0, 64, 10, 1)
	s := Summarize("sys", []*request.Request{r}, Breakdown{})
	if s.Finished != 0 || s.Attained != 0 || s.Requests != 1 {
		t.Fatal("unfinished request mishandled")
	}
	if s.Attainment() != 0 {
		t.Fatal("unfinished should count as violation")
	}
}

func TestSummarizeGoodputExcludesViolators(t *testing.T) {
	reqs := []*request.Request{
		finished(1, request.Chat, 0.05, 0, 0.4, 10), // attained, 10 tokens
		finished(2, request.Chat, 0.05, 0, 0.9, 20), // violated (45ms? no: 0.9/20=45ms attained!) — use tighter
	}
	// Recompute: r2 at 45ms < 50 attains. Force a violation instead.
	reqs[1] = finished(2, request.Chat, 0.05, 0, 1.2, 20) // 60ms violates
	s := Summarize("sys", reqs, Breakdown{})
	// duration = last done (1.2) - first arrival (0) = 1.2.
	if math.Abs(s.duration-1.2) > 1e-12 {
		t.Fatalf("duration %g", s.duration)
	}
	wantGood := 10 / 1.2
	if math.Abs(s.Goodput-wantGood) > 1e-9 {
		t.Fatalf("goodput %g, want %g", s.Goodput, wantGood)
	}
	wantThroughput := 30 / 1.2
	if math.Abs(s.Throughput-wantThroughput) > 1e-9 {
		t.Fatalf("throughput %g, want %g", s.Throughput, wantThroughput)
	}
}

func TestSummarizePerCategory(t *testing.T) {
	reqs := []*request.Request{
		finished(1, request.Coding, 0.04, 0, 0.3, 10),        // 30ms attained
		finished(2, request.Coding, 0.04, 0, 0.5, 10),        // 50ms violated
		finished(3, request.Summarization, 0.15, 0, 1.0, 10), // 100ms attained
	}
	s := Summarize("sys", reqs, Breakdown{})
	c := s.PerCategory[request.Coding]
	if c.Requests != 2 || c.attained != 1 {
		t.Fatalf("coding stats %+v", c)
	}
	if math.Abs(c.MeanTPOT-0.04) > 1e-9 {
		t.Fatalf("coding mean TPOT %g", c.MeanTPOT)
	}
	sm := s.PerCategory[request.Summarization]
	if sm.Attainment() != 1 {
		t.Fatalf("summarization attainment %g", sm.Attainment())
	}
}

func TestSummarizeMeanAccepted(t *testing.T) {
	r := finished(1, request.Chat, 0.05, 0, 0.4, 10)
	r.VerifySteps = 4 // 10 tokens / 4 steps = 2.5
	s := Summarize("sys", []*request.Request{r}, Breakdown{})
	if math.Abs(s.MeanAcceptedPerStep-2.5) > 1e-12 {
		t.Fatalf("mean accepted %g", s.MeanAcceptedPerStep)
	}
}

func TestSummarizeTTFT(t *testing.T) {
	r := finished(1, request.Chat, 0.05, 2.0, 2.4, 10) // arrival 2.0, first commit 2.4
	s := Summarize("sys", []*request.Request{r}, Breakdown{})
	if math.Abs(s.MeanTTFT-0.4) > 1e-9 {
		t.Fatalf("mean TTFT %g", s.MeanTTFT)
	}
}

func TestTPOTPercentiles(t *testing.T) {
	var reqs []*request.Request
	for i := 1; i <= 100; i++ {
		// TPOT = i milliseconds.
		reqs = append(reqs, finished(i, request.Summarization, 0.15, 0, float64(i)*0.001*10, 10))
	}
	s := Summarize("sys", reqs, Breakdown{})
	if p := s.P50TPOT(); p < 0.045 || p > 0.055 {
		t.Fatalf("p50 %g", p)
	}
	if p := s.P99TPOT(); p < 0.095 || p > 0.101 {
		t.Fatalf("p99 %g", p)
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{Scheduling: 1, Speculation: 2, Verification: 6, Prefill: 1}
	if b.Total() != 10 {
		t.Fatalf("total %g", b.Total())
	}
	if math.Abs(b.SchedulingShare()-0.1) > 1e-12 {
		t.Fatalf("share %g", b.SchedulingShare())
	}
	if (Breakdown{}).SchedulingShare() != 0 {
		t.Fatal("empty breakdown share should be 0")
	}
}

func TestSummaryString(t *testing.T) {
	reqs := []*request.Request{finished(1, request.Coding, 0.04, 0, 0.3, 10)}
	s := Summarize("MySystem", reqs, Breakdown{})
	out := s.String()
	if !strings.Contains(out, "MySystem") || !strings.Contains(out, "coding") {
		t.Fatalf("summary string %q", out)
	}
}
