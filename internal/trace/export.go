package trace

import (
	"fmt"
	"sort"

	"adaserve/internal/request"
	"adaserve/internal/serve"
)

// ExportOptions configures an Exporter.
type ExportOptions struct {
	// Seed is recorded in the exported header (and seeds replayed
	// requests' content).
	Seed uint64
	// Source is the provenance string for the header (default "export").
	Source string
	// Classes, when non-nil, is the full class map to emit instead of the
	// SLOs inferred from observed requests. Required when a class only
	// ever appears degraded (degradation destroys the original SLOs on
	// the request, so they cannot be inferred).
	Classes []ClassDef
}

// Exporter is a serve.Observer that records a run's admitted arrivals —
// from any source: open-loop, sessions, replayed traces — back into a
// valid trace, closing the loop: simulate → export → replay reproduces the
// original admission stream. Subscribe it before Run, then call Trace.
//
// Degraded requests are recorded under their original class
// (request.DegradedFrom): the export captures what arrived, not what
// admission rewrote it to, so a replay re-runs the same workload rather
// than a pre-degraded copy. Tenant and session tags are not reconstructed.
type Exporter struct {
	opts     ExportOptions
	arrivals []Arrival
	// slos maps a category to the (TPOT, TTFT) pair observed on
	// non-degraded requests of that class; degraded-only classes stay
	// unresolved until Trace (which then requires opts.Classes).
	slos map[request.Category][2]float64
	seen map[request.Category]bool
	err  error
}

// NewExporter builds an exporter; subscribe it on the server before Run.
func NewExporter(opts ExportOptions) *Exporter {
	if opts.Source == "" {
		opts.Source = "export"
	}
	return &Exporter{
		opts: opts,
		slos: map[request.Category][2]float64{},
		seen: map[request.Category]bool{},
	}
}

// OnEvent implements serve.Observer, recording RequestAdmitted events.
func (e *Exporter) OnEvent(ev serve.Event) {
	ra, ok := ev.(serve.RequestAdmitted)
	if !ok || e.err != nil {
		return
	}
	r := ra.Req
	cat := r.Category
	if r.Degraded {
		cat = r.DegradedFrom
	} else {
		slo := [2]float64{r.TPOTSLO, r.TTFTSLO}
		if prev, ok := e.slos[cat]; ok && prev != slo {
			e.err = fmt.Errorf("trace: export: class %s has conflicting SLOs (%g,%g) and (%g,%g); pass ExportOptions.Classes",
				cat, prev[0], prev[1], slo[0], slo[1])
			return
		}
		e.slos[cat] = slo
	}
	e.seen[cat] = true
	e.arrivals = append(e.arrivals, Arrival{
		at:     r.ArrivalTime,
		class:  int(cat),
		prompt: r.PromptLen,
		output: r.MaxNewTokens,
		tenant: -1, session: -1,
	})
}

// Trace finalizes the export. The class map covers exactly the classes
// observed (or opts.Classes verbatim when given); it fails if a class only
// appeared degraded and no override supplies its SLOs.
func (e *Exporter) Trace() (*Trace, error) {
	if e.err != nil {
		return nil, e.err
	}
	t := &Trace{Header: Header{
		Version:  version,
		TimeUnit: "s",
		Seed:     e.opts.Seed,
		Source:   e.opts.Source,
	}}
	if e.opts.Classes != nil {
		t.Header.Classes = append([]ClassDef(nil), e.opts.Classes...)
	} else {
		cats := make([]request.Category, 0, len(e.seen))
		for cat := range e.seen {
			cats = append(cats, cat)
		}
		sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
		for _, cat := range cats {
			slo, ok := e.slos[cat]
			if !ok {
				return nil, fmt.Errorf("trace: export: class %s only appeared degraded; pass ExportOptions.Classes with its SLOs", cat)
			}
			t.Header.Classes = append(t.Header.Classes, ClassDef{
				ID: int(cat), Name: cat.String(), TPOT: slo[0], TTFT: slo[1],
			})
		}
	}
	// The driver admits in arrival order, but be defensive: a future
	// out-of-order source would otherwise corrupt the export silently.
	if !sort.SliceIsSorted(e.arrivals, func(i, j int) bool { return e.arrivals[i].at < e.arrivals[j].at }) {
		return nil, fmt.Errorf("trace: export: admissions observed out of arrival order")
	}
	t.Arrivals = e.arrivals
	if err := t.validate(); err != nil {
		return nil, err
	}
	return t, nil
}
