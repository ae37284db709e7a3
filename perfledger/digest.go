package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
)

// digest is a sha256 over a canonical rendering of what the simulation
// computed: the aggregate summary, each instance's iterations and end
// clock, and the prefix/fault/admission/autoscale rollups when present.
// Floats render in Go's shortest exact form, so two runs agree on the
// digest only if they agree bit for bit. A change that speeds the
// simulator up without changing what it simulates keeps every digest.
func digest(o *outcome) string {
	h := sha256.New()
	a := o.sum.Aggregate
	fmt.Fprintf(h, "requests=%d finished=%d attained=%d ttft_attained=%d\n",
		a.Requests, a.Finished, a.Attained, a.TTFTAttained)
	fmt.Fprintf(h, "goodput=%v throughput=%v accepted_per_step=%v\n",
		a.Goodput, a.Throughput, a.MeanAcceptedPerStep)
	fmt.Fprintf(h, "tpot=%+v\nttft=%+v\n", a.TPOTTail, a.TTFTTail)
	for i, in := range o.rr.Instances {
		fmt.Fprintf(h, "instance %d iterations=%d end=%v\n", i, in.Iterations, in.EndTime)
	}
	if p := o.sum.Prefix; p != nil {
		fmt.Fprintf(h, "prefix %+v\n", *p)
	}
	if f := o.sum.Faults; f != nil {
		fmt.Fprintf(h, "faults %+v\n", *f)
	}
	if ad := o.sum.Admission; ad != nil {
		fmt.Fprintf(h, "admission %+v\n", *ad)
	}
	if as := o.sum.Autoscale; as != nil {
		fmt.Fprintf(h, "autoscale %+v\n", *as)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// check rejects a run whose results break request conservation or are
// not sane numbers, whatever its digest.
func check(o *outcome, lossy bool) error {
	a := o.sum.Aggregate
	admitted := o.offered
	if ad := o.sum.Admission; ad != nil {
		if ad.Offered != o.offered {
			return fmt.Errorf("admission gate saw %d of %d offered requests", ad.Offered, o.offered)
		}
		admitted = ad.Admitted + ad.Degraded
	}
	switch {
	case o.offered == 0:
		return fmt.Errorf("workload offered no requests")
	case a.Requests != admitted:
		return fmt.Errorf("summary covers %d requests, %d were admitted", a.Requests, admitted)
	case !lossy && a.Finished != a.Requests:
		return fmt.Errorf("%d of %d requests unfinished", a.Requests-a.Finished, a.Requests)
	case a.Finished == 0 || a.Attained == 0:
		return fmt.Errorf("no request finished within its SLO")
	case !(a.Goodput > 0) || math.IsInf(a.Goodput, 0) || !(o.rr.EndTime > 0):
		return fmt.Errorf("goodput %v over %vs is not a positive finite rate", a.Goodput, o.rr.EndTime)
	}
	return nil
}
