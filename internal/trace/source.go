package trace

import (
	"fmt"

	"adaserve/internal/mathutil"
	"adaserve/internal/request"
)

// seedSalt decorrelates replayed requests' content seeds from the other
// per-request seed streams derived from the same base seed.
const seedSalt = 0x7ace

// classCategories maps the trace's class map onto request categories by
// name. Parsing stays format-general (any class names load), but replay is
// strict: every class must name one of the simulator's request categories.
func classCategories(h *Header) (map[int]ClassDef, map[int]request.Category, error) {
	defs := make(map[int]ClassDef, len(h.Classes))
	cats := make(map[int]request.Category, len(h.Classes))
	for _, c := range h.Classes {
		defs[c.ID] = c
		found := false
		for i := 0; i < request.NumCategories; i++ {
			if request.Category(i).String() == c.Name {
				cats[c.ID] = request.Category(i)
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("trace: class %d %q does not name a request category", c.ID, c.Name)
		}
	}
	return defs, cats, nil
}

// makeRequest materializes one arrival as a request. IDs are the arrival's
// index in the trace; content seeds derive from the header seed so a
// replay is fully determined by the file.
func makeRequest(h *Header, defs map[int]ClassDef, cats map[int]request.Category, id int, a Arrival) *request.Request {
	c := defs[a.class]
	r := request.New(id, cats[a.class], c.TPOT, a.at, a.prompt, a.output,
		mathutil.Hash2(h.Seed, uint64(id)+seedSalt))
	r.TTFTSLO = c.TTFT
	return r
}

// Source replays a trace through the event-driven driver: a lazy
// serve.Source that materializes each request on Pop, in file order.
type Source struct {
	trace *Trace
	defs  map[int]ClassDef
	cats  map[int]request.Category
	next  int
}

// NewSource builds a replay source for a validated trace. Fails if any
// class does not name a request category.
func NewSource(t *Trace) (*Source, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	defs, cats, err := classCategories(&t.Header)
	if err != nil {
		return nil, err
	}
	return &Source{trace: t, defs: defs, cats: cats}, nil
}

// Peek reports the next arrival time without consuming it.
func (s *Source) Peek() (float64, bool) {
	if s.next >= len(s.trace.Arrivals) {
		return 0, false
	}
	return s.trace.Arrivals[s.next].at, true
}

// Pop consumes and materializes the next arrival.
func (s *Source) Pop() *request.Request {
	if s.next >= len(s.trace.Arrivals) {
		return nil
	}
	id := s.next
	s.next++
	return makeRequest(&s.trace.Header, s.defs, s.cats, id, s.trace.Arrivals[id])
}
