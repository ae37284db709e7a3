package faults

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseSpecValid(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"", Spec{}},
		{"crash@5", Spec{events: []event{{kind: kindCrash, time: 5, replica: -1}}}},
		{"crash@5+2:r1", Spec{events: []event{{kind: kindCrash, time: 5, duration: 2, replica: 1}}}},
		{"slow@1+2:x3", Spec{events: []event{{kind: kindSlow, time: 1, duration: 2, replica: -1, factor: 3}}}},
		{"slow@1+2:r0:x1.5", Spec{events: []event{{kind: kindSlow, time: 1, duration: 2, replica: 0, factor: 1.5}}}},
		{"link@1+2:p0.5", Spec{events: []event{{kind: kindLink, time: 1, duration: 2, replica: -1, failProb: 0.5}}}},
		{"link@1+2:p0:x4", Spec{events: []event{{kind: kindLink, time: 1, duration: 2, replica: -1, factor: 4}}}},
		{"hazard@0.1+3", Spec{hazard: &hazard{rate: 0.1, mttr: 3}}},
		{"hazard@0.1", Spec{hazard: &hazard{rate: 0.1}}},
		{" crash@5 ; slow@1+2:x3 ", Spec{events: []event{
			{kind: kindCrash, time: 5, replica: -1},
			{kind: kindSlow, time: 1, duration: 2, replica: -1, factor: 3},
		}}},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
		// The canonical rendering must reparse to the same value.
		back, err := ParseSpec(got.String())
		if err != nil {
			t.Errorf("reparse of %q (from %q): %v", got.String(), tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, back) {
			t.Errorf("round trip of %q changed the spec: %+v vs %+v", tc.in, got, back)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"crash",                // no @time
		"crash@",               // empty time
		"crash@-1",             // negative time
		"crash@NaN",            // non-finite time
		"crash@Inf",            // non-finite time
		"crash@5:x2",           // crash takes no factor
		"crash@5:p0.5",         // crash takes no probability
		"crash@5:q1",           // unknown option
		"crash@5:",             // empty option
		"crash@5:r-1",          // negative replica
		"crash@5:rx",           // non-numeric replica
		"slow@1:x3",            // slow needs a duration
		"slow@1+0:x3",          // zero-length window
		"slow@1+2",             // no factor
		"slow@1+2:x1",          // factor must exceed 1
		"slow@1+2:x3:p0.5",     // slow takes no probability
		"link@1:p0.5",          // link needs a duration
		"link@1+2",             // needs p or x
		"link@1+2:p2",          // probability above 1
		"link@1+2:p0.5:r1",     // link is cluster-wide
		"link@1+2:x0.5",        // degrade factor must exceed 1
		"hazard@0+1",           // rate must be positive
		"hazard@0.1:r1",        // hazard takes no options
		"hazard@0.1; hazard@1", // duplicate hazard
		"flood@1",              // unknown kind
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecString(t *testing.T) {
	s, err := ParseSpec("slow@1.25+2:r3:x1.5; crash@10+0.5; link@2+3:p0.25:x2; hazard@0.01+5")
	if err != nil {
		t.Fatal(err)
	}
	want := "slow@1.25+2:r3:x1.5; crash@10+0.5; link@2+3:p0.25:x2; hazard@0.01+5"
	if got := s.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if Empty := (Spec{}).Empty(); !Empty || s.Empty() {
		t.Fatal("Empty() wrong")
	}
}

func TestBindResolvesAndSorts(t *testing.T) {
	s, err := ParseSpec("crash@5; slow@1+2:x3; crash@1+1:r2")
	if err != nil {
		t.Fatal(err)
	}
	bound, err := s.bind(7, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound) != 3 {
		t.Fatalf("bound %d events, want 3", len(bound))
	}
	for i, e := range bound {
		if e.replica < 0 || e.replica >= 4 {
			t.Fatalf("event %d bound to replica %d", i, e.replica)
		}
		if i > 0 && bound[i-1].time > e.time {
			t.Fatalf("bound schedule unsorted at %d", i)
		}
	}
	// Binding is a pure function of (spec, seed, replicas, horizon).
	again, _ := s.bind(7, 4, 0)
	if !reflect.DeepEqual(bound, again) {
		t.Fatal("bind not deterministic")
	}
	other, _ := s.bind(8, 4, 0)
	if reflect.DeepEqual(bound, other) {
		t.Fatal("bind ignores the seed")
	}
	// Explicit out-of-range targets are rejected.
	if _, err := s.bind(7, 2, 0); err == nil {
		t.Fatal("bound replica 2 on a 2-replica fleet")
	}
}

func TestBindExpandsHazard(t *testing.T) {
	s, err := ParseSpec("hazard@0.5+2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.bind(7, 4, 0); err == nil {
		t.Fatal("hazard bound without a horizon")
	}
	bound, err := s.bind(7, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(bound) < 20 || len(bound) > 120 {
		t.Fatalf("rate 0.5 over 100s expanded to %d crashes", len(bound))
	}
	for i, e := range bound {
		if e.kind != kindCrash || e.duration != 2 || e.time >= 100 {
			t.Fatalf("hazard event %d wrong: %+v", i, e)
		}
		if i > 0 && bound[i-1].time > e.time {
			t.Fatalf("hazard schedule unsorted at %d", i)
		}
	}
	again, _ := s.bind(7, 4, 100)
	if !reflect.DeepEqual(bound, again) {
		t.Fatal("hazard expansion not deterministic")
	}
}

// TestBindRejectsRunawayHazard pins the hazard expansion cap: a rate whose
// expected crash count over the horizon exceeds maxHazardCrashes fails
// before any of the schedule is allocated, and a rate just under it binds.
func TestBindRejectsRunawayHazard(t *testing.T) {
	const horizon = 3
	runaway, err := ParseSpec("hazard@1e7+10")
	if err != nil {
		t.Fatal(err)
	}
	var bindErr error
	allocs := testing.AllocsPerRun(1, func() { _, bindErr = runaway.bind(1, 2, horizon) })
	if bindErr == nil || !strings.Contains(bindErr.Error(), "limit") {
		t.Fatalf("runaway hazard bound: %v", bindErr)
	}
	if allocs > 8 {
		t.Fatalf("rejecting the runaway hazard made %.0f allocations", allocs)
	}

	under := Spec{hazard: &hazard{rate: 0.999 * maxHazardCrashes / horizon, mttr: 10}}
	bound, err := under.bind(1, 2, horizon)
	if err != nil {
		t.Fatalf("hazard just under the limit rejected: %v", err)
	}
	if len(bound) < maxHazardCrashes*9/10 || len(bound) > maxHazardCrashes {
		t.Fatalf("hazard just under the limit expanded to %d crashes", len(bound))
	}
}

func TestParseRecovery(t *testing.T) {
	for in, want := range map[string]Recovery{
		"none": RecoveryNone, "retry": RecoveryRetry,
		"retry+hedge": RecoveryRetryHedge, "hedge": RecoveryRetryHedge,
	} {
		got, err := ParseRecovery(in)
		if err != nil || got != want {
			t.Errorf("ParseRecovery(%q) = (%v, %v), want %v", in, got, err, want)
		}
	}
	if _, err := ParseRecovery("prayer"); err == nil || !strings.Contains(err.Error(), "prayer") {
		t.Fatalf("ParseRecovery accepted garbage: %v", err)
	}
	if RecoveryRetryHedge.String() != "retry+hedge" || Recovery(9).String() != "Recovery(9)" {
		t.Fatal("Recovery.String wrong")
	}
	if kindLink.String() != "link" || kind(9).String() != "Kind(9)" {
		t.Fatal("Kind.String wrong")
	}
}
