package trace

import (
	"strings"
	"testing"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

func admitted(r *request.Request) serve.Event {
	return serve.RequestAdmitted{EventMeta: serve.EventMeta{Time: r.ArrivalTime}, Req: r}
}

func TestExporterRoundTrip(t *testing.T) {
	e := NewExporter(ExportOptions{Seed: 42, Source: "export:test"})
	mk := func(id int, cat request.Category, tpot, at float64, prompt, out int, ttft float64) *request.Request {
		r := request.New(id, cat, tpot, at, prompt, out, 1)
		r.TTFTSLO = ttft
		return r
	}
	reqs := []*request.Request{
		mk(0, request.Chat, 0.05, 0.5, 60, 80, 1),
		mk(1, request.Coding, 0.024, 1.25, 160, 90, 1),
		mk(2, request.Chat, 0.05, 2, 48, 64, 1),
	}
	for _, r := range reqs {
		e.OnEvent(admitted(r))
	}
	tr, err := e.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.Header.Seed != 42 || tr.Header.Source != "export:test" {
		t.Fatalf("header: %+v", tr.Header)
	}
	want := []ClassDef{
		{ID: 0, Name: "coding", TPOT: 0.024, TTFT: 1},
		{ID: 1, Name: "chat", TPOT: 0.05, TTFT: 1},
	}
	if len(tr.Header.Classes) != 2 || tr.Header.Classes[0] != want[0] || tr.Header.Classes[1] != want[1] {
		t.Fatalf("classes = %+v, want %+v", tr.Header.Classes, want)
	}
	// Replay reproduces the original admission stream exactly.
	replayed := drain(t, tr)
	if len(replayed) != len(reqs) {
		t.Fatalf("replay len = %d", len(replayed))
	}
	for i, r := range replayed {
		o := reqs[i]
		if r.ArrivalTime != o.ArrivalTime || r.Category != o.Category ||
			r.PromptLen != o.PromptLen || r.MaxNewTokens != o.MaxNewTokens ||
			r.TPOTSLO != o.TPOTSLO || r.TTFTSLO != o.TTFTSLO {
			t.Fatalf("replayed %d = %+v, want %+v", i, r, o)
		}
	}
	// The exported text is a valid canonical trace file.
	back, err := Parse(tr.Format())
	if err != nil {
		t.Fatalf("Parse(exported): %v", err)
	}
	if back.Format() != tr.Format() {
		t.Fatal("exported trace not canonical")
	}
}

func TestExporterDegraded(t *testing.T) {
	e := NewExporter(ExportOptions{Seed: 1})
	healthy := request.New(0, request.Chat, 0.05, 1, 60, 80, 1)
	healthy.TTFTSLO = 1
	e.OnEvent(admitted(healthy))
	deg := request.New(1, request.Chat, 0.05, 2, 70, 90, 1)
	deg.TTFTSLO = 1
	deg.Degrade(0.5)
	e.OnEvent(admitted(deg))
	tr, err := e.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	// Both record under chat — the class they arrived with — even though
	// degradation rewrote the second to summarization.
	if len(tr.Header.Classes) != 1 || tr.Header.Classes[0].Name != "chat" {
		t.Fatalf("classes = %+v", tr.Header.Classes)
	}
	if tr.Arrivals[1].class != int(request.Chat) || tr.Arrivals[1].prompt != 70 {
		t.Fatalf("degraded arrival = %+v", tr.Arrivals[1])
	}
	// Its SLOs come from the non-degraded sibling, not the degraded copy.
	c := tr.Header.Classes[0]
	if c.TPOT != 0.05 || c.TTFT != 1 {
		t.Fatalf("class SLOs = %+v", c)
	}
}

func TestExporterDegradedOnlyClass(t *testing.T) {
	mkDegraded := func() serve.Event {
		r := request.New(0, request.Coding, 0.024, 1, 60, 80, 1)
		r.Degrade(0.5)
		return admitted(r)
	}
	e := NewExporter(ExportOptions{Seed: 1})
	e.OnEvent(mkDegraded())
	if _, err := e.Trace(); err == nil || !strings.Contains(err.Error(), "only appeared degraded") {
		t.Fatalf("Trace = %v, want degraded-only error", err)
	}
	// The Classes override resolves it.
	e = NewExporter(ExportOptions{Seed: 1, Classes: []ClassDef{
		{ID: 0, Name: "coding", TPOT: 0.024, TTFT: 1},
	}})
	e.OnEvent(mkDegraded())
	tr, err := e.Trace()
	if err != nil {
		t.Fatalf("Trace with override: %v", err)
	}
	if len(tr.Header.Classes) != 1 || tr.Arrivals[0].class != 0 {
		t.Fatalf("override export: %+v", tr)
	}
}

func TestExporterConflictingSLOs(t *testing.T) {
	e := NewExporter(ExportOptions{Seed: 1})
	a := request.New(0, request.Chat, 0.05, 1, 60, 80, 1)
	b := request.New(1, request.Chat, 0.08, 2, 60, 80, 1)
	e.OnEvent(admitted(a))
	e.OnEvent(admitted(b))
	if _, err := e.Trace(); err == nil || !strings.Contains(err.Error(), "conflicting SLOs") {
		t.Fatalf("Trace = %v, want conflict error", err)
	}
}

// drain replays tr through a Source and returns every request it yields.
func drain(t *testing.T, tr *Trace) []*request.Request {
	t.Helper()
	src, err := NewSource(tr)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	var out []*request.Request
	for {
		if _, ok := src.Peek(); !ok {
			return out
		}
		out = append(out, src.Pop())
	}
}
