// Package faults is the deterministic fault-injection and recovery subsystem
// over the event-driven cluster: a seed-scheduled Spec of replica crashes,
// straggler windows and KV-transfer link faults, and an Injector that drives
// injection and recovery (timeout detection, retry with backoff, hedged
// re-dispatch, failover) through the serve driver's delivery queue at exact
// event-time instants. Schedules are pure functions of the seed, so faulted
// runs stay byte-identical at any -parallel width.
package faults

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"adaserve/internal/mathutil"
)

// kind discriminates fault events.
type kind int

const (
	// kindCrash halts a replica abruptly at Time, losing its resident
	// requests and KV; duration is the repair delay (0: never repaired).
	kindCrash kind = iota
	// kindSlow multiplies one replica's iteration step time by Factor for
	// the window [Time, Time+duration).
	kindSlow
	// kindLink degrades the prefill-to-decode KV-transfer link for the
	// window [Time, Time+duration): migrations fail with probability
	// FailProb (prompt KV lost in flight, recomputed on the destination)
	// and surviving transfers pay Factor× latency when Factor > 1.
	kindLink
)

// String implements fmt.Stringer.
func (k kind) String() string {
	switch k {
	case kindCrash:
		return "crash"
	case kindSlow:
		return "slow"
	case kindLink:
		return "link"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// event is one scheduled fault.
type event struct {
	kind kind
	// time is the injection instant in simulated seconds.
	time float64
	// duration is the slow/link window length, or the crash repair delay
	// (0: the crash is never repaired).
	duration float64
	// replica is the target replica ID; -1 binds deterministically from the
	// seed at bind time. Link faults are cluster-wide (always -1).
	replica int
	// factor is the slow-down multiplier (slow: > 1; link: ≥ 1 latency
	// degradation on surviving transfers, 0 meaning none).
	factor float64
	// failProb is the link fault's per-migration loss probability.
	failProb float64
}

// hazard derives crash events from a seeded exponential process instead of
// explicit instants: crashes arrive at rate per second (expanded over the
// bind horizon), each repaired after MTTR (0: never).
type hazard struct {
	rate float64
	mttr float64
}

// Spec is a parsed fault schedule: explicit events plus an optional hazard
// process, both bound to concrete replicas by bind.
type Spec struct {
	events []event
	hazard *hazard
}

// num renders a float in the canonical spec form: shortest exact decimal,
// never exponent notation (so String output always reparses).
func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// String renders the canonical spec: terms joined by "; ", options in fixed
// order, numbers in shortest exact decimal form. ParseSpec(s.String()) is
// the identity on parsed values.
func (s Spec) String() string {
	var terms []string
	for _, e := range s.events {
		var b strings.Builder
		b.WriteString(e.kind.String())
		b.WriteByte('@')
		b.WriteString(num(e.time))
		if e.kind != kindCrash || e.duration > 0 {
			b.WriteByte('+')
			b.WriteString(num(e.duration))
		}
		if e.kind != kindLink && e.replica >= 0 {
			b.WriteString(":r")
			b.WriteString(strconv.Itoa(e.replica))
		}
		if e.kind == kindLink {
			b.WriteString(":p")
			b.WriteString(num(e.failProb))
		}
		if e.kind == kindSlow || (e.kind == kindLink && e.factor > 1) {
			b.WriteString(":x")
			b.WriteString(num(e.factor))
		}
		terms = append(terms, b.String())
	}
	if s.hazard != nil {
		terms = append(terms, "hazard@"+num(s.hazard.rate)+"+"+num(s.hazard.mttr))
	}
	return strings.Join(terms, "; ")
}

// parseNum parses a finite, non-negative spec number.
func parseNum(s, what string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return 0, fmt.Errorf("faults: bad %s %q", what, s)
	}
	return v, nil
}

// ParseSpec parses a fault-schedule spec string: ";"-separated terms, each
//
//	crash@T[+R][:rN]     crash at T, repaired after R (omitted: never), on
//	                     replica N (omitted: seed-bound at bind time)
//	slow@T+D[:rN]:xF     straggler: replica N runs F× slower over [T, T+D)
//	link@T+D:pP[:xF]     KV-transfer link fault over [T, T+D): migrations
//	                     fail with probability P, survivors pay F× latency
//	hazard@R+M           seeded exponential crash process: rate R per
//	                     second, each crash repaired after M (0: never)
//
// An empty spec is valid (no faults). Whitespace around terms is ignored.
func ParseSpec(spec string) (Spec, error) {
	var s Spec
	for _, term := range strings.Split(spec, ";") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		kind, rest, ok := strings.Cut(term, "@")
		if !ok {
			return Spec{}, fmt.Errorf("faults: bad term %q (want kind@time...)", term)
		}
		parts := strings.Split(rest, ":")
		head, opts := parts[0], parts[1:]
		t, dur := head, ""
		if at := strings.IndexByte(head, '+'); at >= 0 {
			t, dur = head[:at], head[at+1:]
		}
		tv, err := parseNum(t, "time")
		if err != nil {
			return Spec{}, err
		}
		dv := 0.0
		if dur != "" {
			if dv, err = parseNum(dur, "duration"); err != nil {
				return Spec{}, err
			}
		}
		ev := event{time: tv, duration: dv, replica: -1}
		for _, opt := range opts {
			if opt == "" {
				return Spec{}, fmt.Errorf("faults: empty option in %q", term)
			}
			val := opt[1:]
			switch opt[0] {
			case 'r':
				n, err := strconv.Atoi(val)
				if err != nil || n < 0 {
					return Spec{}, fmt.Errorf("faults: bad replica %q in %q", val, term)
				}
				ev.replica = n
			case 'x':
				if ev.factor, err = parseNum(val, "factor"); err != nil {
					return Spec{}, err
				}
			case 'p':
				if ev.failProb, err = parseNum(val, "probability"); err != nil {
					return Spec{}, err
				}
			default:
				return Spec{}, fmt.Errorf("faults: unknown option %q in %q", opt, term)
			}
		}
		switch kind {
		case "crash":
			if ev.factor != 0 || ev.failProb != 0 {
				return Spec{}, fmt.Errorf("faults: crash takes no :x/:p option in %q", term)
			}
			ev.kind = kindCrash
		case "slow":
			if dur == "" || dv <= 0 {
				return Spec{}, fmt.Errorf("faults: slow needs a positive +duration in %q", term)
			}
			if ev.factor <= 1 {
				return Spec{}, fmt.Errorf("faults: slow needs a slowdown factor :x > 1 in %q", term)
			}
			if ev.failProb != 0 {
				return Spec{}, fmt.Errorf("faults: slow takes no :p option in %q", term)
			}
			ev.kind = kindSlow
		case "link":
			if dur == "" || dv <= 0 {
				return Spec{}, fmt.Errorf("faults: link needs a positive +duration in %q", term)
			}
			if ev.replica >= 0 {
				return Spec{}, fmt.Errorf("faults: link faults are cluster-wide (no :r option) in %q", term)
			}
			if ev.failProb > 1 {
				return Spec{}, fmt.Errorf("faults: link probability %g > 1 in %q", ev.failProb, term)
			}
			if ev.factor != 0 && ev.factor <= 1 {
				return Spec{}, fmt.Errorf("faults: link degrade factor :x must exceed 1 in %q", term)
			}
			if ev.failProb == 0 && ev.factor == 0 {
				return Spec{}, fmt.Errorf("faults: link needs :p > 0 or :x > 1 in %q", term)
			}
			ev.kind = kindLink
		case "hazard":
			if s.hazard != nil {
				return Spec{}, fmt.Errorf("faults: duplicate hazard term %q", term)
			}
			if tv <= 0 {
				return Spec{}, fmt.Errorf("faults: hazard needs a positive rate in %q", term)
			}
			if len(opts) > 0 {
				return Spec{}, fmt.Errorf("faults: hazard takes no options in %q", term)
			}
			s.hazard = &hazard{rate: tv, mttr: dv}
			continue
		default:
			return Spec{}, fmt.Errorf("faults: unknown fault kind %q in %q", kind, term)
		}
		s.events = append(s.events, ev)
	}
	return s, nil
}

// Empty reports whether the spec schedules nothing.
func (s Spec) Empty() bool { return len(s.events) == 0 && s.hazard == nil }

// maxHazardCrashes caps the crashes a hazard process may expand into: bind
// materializes every one, so a runaway rate would exhaust memory before the
// run starts. It rejects a hazard whose expected count rate × horizon
// exceeds the cap.
const maxHazardCrashes = 100_000

// bind resolves the spec against a concrete fleet: hazard crashes expand
// over [0, horizon) from the seeded exponential process, unbound replicas
// resolve deterministically from the seed, explicit replica IDs are
// validated against the fleet size, and the result is sorted by (time, kind,
// replica). Bound schedules are pure functions of (spec, seed, replicas,
// horizon) — the determinism contract the chaos experiments rely on.
func (s Spec) bind(seed uint64, replicas int, horizon float64) ([]event, error) {
	if replicas <= 0 {
		return nil, fmt.Errorf("faults: bind against %d replicas", replicas)
	}
	bound := append([]event(nil), s.events...)
	if h := s.hazard; h != nil {
		if horizon <= 0 {
			return nil, fmt.Errorf("faults: hazard needs a positive bind horizon")
		}
		if n := h.rate * horizon; n > maxHazardCrashes {
			return nil, fmt.Errorf("faults: hazard rate %s over a %ss horizon expects %.3g crashes, above the limit of %d",
				num(h.rate), num(horizon), n, maxHazardCrashes)
		}
		rng := mathutil.NewRNG(mathutil.Hash2(seed, 0xfa17))
		for t := rng.ExpFloat64() / h.rate; t < horizon; t += rng.ExpFloat64() / h.rate {
			bound = append(bound, event{
				kind: kindCrash, time: t, duration: h.mttr,
				replica: rng.Intn(replicas),
			})
		}
	}
	for i := range bound {
		e := &bound[i]
		if e.kind == kindLink {
			continue
		}
		if e.replica < 0 {
			e.replica = int(mathutil.Hash2(seed, 0xb1bd+uint64(i)) % uint64(replicas))
		}
		if e.replica >= replicas {
			return nil, fmt.Errorf("faults: event %s targets replica %d of a %d-replica fleet",
				e.kind, e.replica, replicas)
		}
	}
	sort.SliceStable(bound, func(i, j int) bool {
		a, b := bound[i], bound[j]
		if a.time != b.time {
			return a.time < b.time
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.replica < b.replica
	})
	return bound, nil
}
