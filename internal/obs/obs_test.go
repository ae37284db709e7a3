package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"adaserve/internal/metrics"
	"adaserve/internal/obs/hist"
	"adaserve/internal/request"
	"adaserve/internal/serve"
)

func meta(t float64, seq int) serve.EventMeta { return serve.EventMeta{Time: t, Seq: seq} }

func mkReq(id int, arrival float64) *request.Request {
	r := request.New(id, request.Chat, 0.05, arrival, 60, 80, 1)
	r.TTFTSLO = 1
	return r
}

func TestSpanRejectedAtAdmission(t *testing.T) {
	sr := NewSpanRecorder()
	r := mkReq(0, 1.5)
	sr.OnEvent(serve.RequestRejected{EventMeta: meta(1.5, 0), Req: r, Reason: "queue saturated"})
	tls := sr.Timelines()
	if len(tls) != 1 {
		t.Fatalf("timelines = %d", len(tls))
	}
	tl := tls[0]
	if !tl.Rejected || tl.Finish != -1 || len(tl.Phases) != 0 {
		t.Fatalf("rejected timeline = %+v", tl)
	}
	if len(tl.Marks) != 1 || tl.Marks[0].Name != "rejected" || tl.Marks[0].Detail != "queue saturated" || tl.Marks[0].Instance != -1 {
		t.Fatalf("rejected mark = %+v", tl.Marks)
	}
}

func TestSpanDegradeThenServe(t *testing.T) {
	sr := NewSpanRecorder()
	r := mkReq(3, 2)
	r.Degrade(0.5)
	sr.OnEvent(serve.RequestDegraded{EventMeta: meta(2, 0), Req: r, From: r.DegradedFrom, To: r.Category, Reason: "overload"})
	sr.OnEvent(serve.RequestAdmitted{EventMeta: meta(2, 1), Req: r, Instance: 0})
	r.AdmitTime, r.FirstDecodeTime, r.FirstTokenTime, r.DoneTime = 2.1, 2.4, 2.5, 4.0
	sr.OnEvent(serve.FirstToken{EventMeta: meta(2.5, 2), Req: r, Instance: 0, TTFT: 0.5})
	sr.OnEvent(serve.RequestFinished{EventMeta: meta(4, 3), Req: r, Instance: 0, Attained: true, TTFTAttained: true})
	tl := sr.Timelines()[0]
	if tl.Class != "chat" || tl.DegradedTo != r.Category.String() {
		t.Fatalf("degrade classes: class=%q degradedTo=%q", tl.Class, tl.DegradedTo)
	}
	if len(tl.Phases) != 3 {
		t.Fatalf("phases = %+v", tl.Phases)
	}
	wantPhases := []struct {
		name       string
		start, end float64
	}{{"queued", 2, 2.1}, {"prefill", 2.1, 2.4}, {"decode", 2.4, 4.0}}
	for i, w := range wantPhases {
		p := tl.Phases[i]
		if p.Name != w.name || p.Start != w.start || p.End != w.end {
			t.Fatalf("phase %d = %+v, want %+v", i, p, w)
		}
	}
	if tl.Marks[0].Name != "degraded" || !strings.Contains(tl.Marks[0].Detail, "overload") {
		t.Fatalf("degrade mark = %+v", tl.Marks[0])
	}
}

func TestSpanMigrationWindow(t *testing.T) {
	sr := NewSpanRecorder()
	r := mkReq(7, 0)
	sr.OnEvent(serve.RequestAdmitted{EventMeta: meta(0, 0), Req: r, Instance: 2})
	r.AdmitTime = 0.1
	// Prefill completes on instance 2 at t=0.9; KV lands on instance 5 at 1.0.
	sr.OnEvent(serve.RequestMigrated{EventMeta: meta(1.0, 1), Req: r, From: 2, To: 5, Depart: 0.9, Bytes: 1e6})
	r.FirstDecodeTime, r.FirstTokenTime, r.DoneTime = 1.2, 1.3, 3.0
	sr.OnEvent(serve.RequestFinished{EventMeta: meta(3, 2), Req: r, Instance: 5, Attained: true, TTFTAttained: true})
	tl := sr.Timelines()[0]
	var names []string
	for _, p := range tl.Phases {
		names = append(names, p.Name)
	}
	if got := strings.Join(names, ","); got != "queued,prefill,kv-transfer,decode" {
		t.Fatalf("phase order = %s", got)
	}
	pf, kv, dec := tl.Phases[1], tl.Phases[2], tl.Phases[3]
	if pf.End != 0.9 || pf.Instance != 2 {
		t.Fatalf("prefill truncated at migration depart: %+v", pf)
	}
	if kv.Start != 0.9 || kv.End != 1.0 || kv.Instance != 5 {
		t.Fatalf("kv-transfer window: %+v", kv)
	}
	if dec.Start != 1.2 || dec.End != 3.0 || dec.Instance != 5 {
		t.Fatalf("decode span: %+v", dec)
	}
}

func TestSpanRetryHedgeAnnotations(t *testing.T) {
	sr := NewSpanRecorder()
	r := mkReq(1, 0)
	sr.OnEvent(serve.RequestAdmitted{EventMeta: meta(0, 0), Req: r, Instance: 0})
	sr.OnEvent(serve.RequestRetried{EventMeta: meta(2, 1), Req: r, Instance: 1, Attempt: 1})
	sr.OnEvent(serve.RequestHedged{EventMeta: meta(3, 2), Req: r, Instance: 2})
	r.AdmitTime, r.FirstDecodeTime, r.DoneTime = 2, 2.5, 4
	sr.OnEvent(serve.RequestFinished{EventMeta: meta(4, 3), Req: r, Instance: 2, Attained: false, TTFTAttained: false})
	tl := sr.Timelines()[0]
	if tl.Retries != 1 || tl.Hedges != 1 {
		t.Fatalf("retry/hedge counts: %+v", tl)
	}
	// The final attempt's queued span runs from arrival to the retry's
	// scheduling instant.
	if tl.Phases[0].Name != "queued" || tl.Phases[0].End != 2 {
		t.Fatalf("queued phase = %+v", tl.Phases[0])
	}
	var marks []string
	for _, m := range tl.Marks {
		marks = append(marks, m.Name)
	}
	if got := strings.Join(marks, ","); got != "retry,hedged" {
		t.Fatalf("marks = %s", got)
	}
}

func TestWriteTraceValidDeterministicJSON(t *testing.T) {
	build := func() *SpanRecorder {
		sr := NewSpanRecorder()
		// Deliver out of ID order: export must still order by request ID.
		r2 := mkReq(2, 1)
		sr.OnEvent(serve.RequestAdmitted{EventMeta: meta(1, 0), Req: r2, Instance: 0})
		r2.AdmitTime, r2.FirstDecodeTime, r2.DoneTime = 1.1, 1.2, 2
		sr.OnEvent(serve.TokensCommitted{EventMeta: meta(1.5, 1), Req: r2, Instance: 0, Tokens: 4, Total: 4})
		sr.OnEvent(serve.RequestFinished{EventMeta: meta(2, 2), Req: r2, Instance: 0, Attained: true, TTFTAttained: true})
		r1 := mkReq(1, 0.5)
		sr.OnEvent(serve.RequestRejected{EventMeta: meta(0.5, 3), Req: r1, Reason: "ttft unmeetable"})
		return sr
	}
	var a, b bytes.Buffer
	if err := build().WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteTrace not deterministic")
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	lastTid := -1
	for _, ev := range doc.TraceEvents {
		if ev.Tid < lastTid {
			t.Fatalf("events not ordered by request ID: tid %d after %d", ev.Tid, lastTid)
		}
		lastTid = ev.Tid
	}
	// The rejected request (ID 1) precedes the served one (ID 2).
	if doc.TraceEvents[0].Tid != 1 || doc.TraceEvents[0].Ph != "M" {
		t.Fatalf("first event = %+v, want req 1 metadata", doc.TraceEvents[0])
	}
}

func finishedReq(id int, cat request.Category, arrival, done float64) *request.Request {
	r := request.New(id, cat, 0.05, arrival, 60, 4, 1)
	r.TTFTSLO = 1
	r.AdmitTime = arrival + 0.05
	r.FirstDecodeTime = arrival + 0.1
	r.FirstTokenTime = arrival + 0.15
	r.DoneTime = done
	r.Phase = request.Done
	r.Generated = 4
	return r
}

func TestMetricsExporterPrometheus(t *testing.T) {
	e := NewMetricsExporter()
	ro := metrics.NewRolling(30)
	reqs := []*request.Request{
		finishedReq(0, request.Chat, 0, 1),
		finishedReq(1, request.Coding, 0.5, 2),
	}
	for _, r := range reqs {
		ro.Arrived(r)
		ro.Finished(r)
	}
	e.OnEvent(serve.Snapshot{EventMeta: meta(5, 0), Stats: ro.Snapshot(5, 1, 2)})
	e.OnEvent(serve.Snapshot{EventMeta: meta(10, 1), Stats: ro.Snapshot(10, 0, 0), Final: true})
	sum := metrics.Summarize("test", reqs, metrics.Breakdown{})

	var buf bytes.Buffer
	if err := e.WritePrometheus(&buf, sum); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE adaserve_queued gauge",
		"adaserve_queued 1 5000",
		"adaserve_queued 0 10000",
		"adaserve_finished_total 2 10000",
		"# TYPE adaserve_tpot_seconds histogram",
		`adaserve_tpot_seconds_bucket{le="+Inf"} 2`,
		"adaserve_tpot_seconds_count 2",
		`adaserve_class_tpot_seconds_bucket{class="coding",le="+Inf"} 1`,
		"adaserve_attainment ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\n%s", want, out)
		}
	}
	// Deterministic across identical runs.
	var buf2 bytes.Buffer
	if err := e.WritePrometheus(&buf2, sum); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WritePrometheus not deterministic")
	}
}

func TestMetricsExporterJSON(t *testing.T) {
	e := NewMetricsExporter()
	ro := metrics.NewRolling(30)
	r := finishedReq(0, request.Chat, 0, 1)
	ro.Arrived(r)
	ro.Finished(r)
	e.OnEvent(serve.Snapshot{EventMeta: meta(5, 0), Stats: ro.Snapshot(5, 0, 1)})
	sum := metrics.Summarize("test", []*request.Request{r}, metrics.Breakdown{})
	var buf bytes.Buffer
	if err := e.WriteJSON(&buf, sum); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Series []struct {
			Time     float64 `json:"time"`
			Finished int     `json:"finished"`
		} `json:"series"`
		Summary struct {
			Requests int `json:"requests"`
			PerClass []struct {
				Class string `json:"class"`
			} `json:"perClass"`
		} `json:"summary"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON export invalid: %v", err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Time != 5 || doc.Series[0].Finished != 1 {
		t.Fatalf("series = %+v", doc.Series)
	}
	if doc.Summary.Requests != 1 || len(doc.Summary.PerClass) != 1 || doc.Summary.PerClass[0].Class != "chat" {
		t.Fatalf("summary = %+v", doc.Summary)
	}
}

func TestPercentileTable(t *testing.T) {
	reqs := []*request.Request{
		finishedReq(0, request.Chat, 0, 1),
		finishedReq(1, request.Coding, 0.5, 2),
	}
	sum := metrics.Summarize("test", reqs, metrics.Breakdown{})
	table := PercentileTable(sum)
	for _, want := range []string{"p50", "p99.9", "tpot/chat", "tpot/coding", "tpot/all", "ttft/all"} {
		if !strings.Contains(table, want) {
			t.Errorf("percentile table missing %q:\n%s", want, table)
		}
	}
}

// TestWritePromHistogramEdges pins the unlabeled family rendering and the
// nil-histogram no-op that lets exporters pass through absent summaries.
func TestWritePromHistogramEdges(t *testing.T) {
	var buf bytes.Buffer
	if err := writePromHistogram(&buf, "x", "", "", nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("nil histogram emitted output: %q", buf.String())
	}
	h := hist.New()
	h.Observe(0.01)
	if err := writePromHistogram(&buf, "x_seconds", "", "", h); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "# HELP") {
		t.Fatalf("empty help still emitted metadata:\n%s", out)
	}
	for _, w := range []string{`x_seconds_bucket{le="+Inf"} 1`, "x_seconds_sum 0.01", "x_seconds_count 1"} {
		if !strings.Contains(out, w) {
			t.Fatalf("unlabeled histogram output missing %q:\n%s", w, out)
		}
	}
}
