package metrics

import (
	"fmt"
	"strings"
)

// Add accumulates another breakdown into b (used when merging per-replica
// accounting into a cluster total).
func (b *Breakdown) Add(o Breakdown) {
	b.Scheduling += o.Scheduling
	b.Speculation += o.Speculation
	b.Verification += o.Verification
	b.Prefill += o.Prefill
}

// RoleStats splits a disaggregated cluster's attainment by replica role:
// TTFT attainment over the requests whose prompt a replica of this role
// prefilled, and TPOT attainment over the requests it decoded. In a
// colocated cluster every replica owns both stages, so the single "mixed"
// row carries both numbers.
type RoleStats struct {
	// Role is the replica role name ("prefill", "decode", "mixed").
	Role string
	// Replicas is how many replicas run this role.
	Replicas int
	// PrefillRequests counts prompts served by this role; TTFTAttained of
	// them met their TTFT SLO.
	PrefillRequests int
	TTFTAttained    int
	// DecodeRequests counts requests whose decode ran on this role;
	// TPOTAttained of them finished within their TPOT SLO.
	DecodeRequests int
	TPOTAttained   int
}

// TTFTAttainment returns the role's TTFT attainment fraction.
func (r RoleStats) TTFTAttainment() float64 {
	if r.PrefillRequests == 0 {
		return 0
	}
	return float64(r.TTFTAttained) / float64(r.PrefillRequests)
}

// TPOTAttainment returns the role's TPOT attainment fraction.
func (r RoleStats) TPOTAttainment() float64 {
	if r.DecodeRequests == 0 {
		return 0
	}
	return float64(r.TPOTAttained) / float64(r.DecodeRequests)
}

// TransferStats aggregates the prefill-to-decode KV handoffs of a
// disaggregated run. A colocated run has none.
type TransferStats struct {
	// Count is the number of migrations (one per request that prefilled on
	// a prefill-role replica).
	Count int
	// Bytes is the total KV bytes moved across the interconnect.
	Bytes float64
	// Time is the summed transfer latency in seconds — simulated time each
	// request spent in flight between prefill completion and decode
	// eligibility.
	Time float64
}

// MeanLatency returns the average per-migration transfer latency.
func (t TransferStats) MeanLatency() float64 {
	if t.Count == 0 {
		return 0
	}
	return t.Time / float64(t.Count)
}

// AutoscaleSummary reports the replica-lifecycle economics of a cluster run:
// how much capacity the fleet consumed and what it bought. Replica-seconds —
// the integral of committed replicas (provisioning, active or draining) over
// simulated time — is the cost denominator; goodput and attainment per
// replica-second are the cost-efficiency headlines the autoscaling
// experiments compare policies on. A static cluster consumes
// size × run-duration replica-seconds with no scale events.
type AutoscaleSummary struct {
	// Policy names the autoscaling policy ("static" for a fixed fleet).
	Policy string
	// ScaleUps/ScaleDowns count autoscaler actions (a canceled provisioning
	// counts as a scale-down).
	ScaleUps, ScaleDowns int
	// DrainMigrations counts requests moved off draining replicas.
	DrainMigrations int
	// ReplicaSeconds is the total capacity consumed: committed replicas
	// integrated over simulated time (provisioning cold-start time counts —
	// the machine is paid for while the model loads).
	ReplicaSeconds float64
	// PeakReplicas/MinReplicas bound the committed fleet size over the run.
	PeakReplicas, MinReplicas int
	// Finished/Attained count retired requests (and those meeting their
	// SLOs); GoodTokens are output tokens from attaining requests.
	Finished, Attained int
	GoodTokens         int
}

// GoodputPerReplicaSecond returns good output tokens per replica-second
// consumed: the cost-normalized goodput autoscaling optimizes.
func (a AutoscaleSummary) GoodputPerReplicaSecond() float64 {
	if a.ReplicaSeconds <= 0 {
		return 0
	}
	return float64(a.GoodTokens) / a.ReplicaSeconds
}

// String renders the one-line lifecycle economics summary.
func (a AutoscaleSummary) String() string {
	policy := a.Policy
	if policy == "" {
		policy = "static"
	}
	return fmt.Sprintf("%s: %d up / %d down, %d drain migrations, fleet %d-%d, %.1f replica-s, %.2f good tok/replica-s",
		policy, a.ScaleUps, a.ScaleDowns, a.DrainMigrations,
		a.MinReplicas, a.PeakReplicas, a.ReplicaSeconds, a.GoodputPerReplicaSecond())
}

// FaultSummary reports what an injected fault schedule did to a cluster run
// and what recovery bought back. Attainment-under-faults is read off the
// ordinary aggregate summary — every lost-and-never-recovered request counts
// as a violation there — so this rollup carries the failure-specific counts
// the chaos experiments compare recovery modes on.
type FaultSummary struct {
	// Spec is the canonical fault-schedule spec string; Recovery names the
	// recovery mode ("none", "retry", "retry+hedge").
	Spec     string
	Recovery string
	// Crashes, Stragglers and LinkWindows count injected fault events;
	// Repairs counts crashes whose replica returned.
	Crashes, Stragglers, LinkWindows, Repairs int
	// LostRequests counts requests frozen on crashed replicas (harvested at
	// detection); Retried of them were re-dispatched. Dropped counts requests
	// never served to completion for want of a replica: lost ones that
	// exhausted their retry budget, plus arrivals held through a whole-fleet
	// outage that outlasted the run.
	LostRequests, Retried, Dropped int
	// Hedged counts duplicate dispatches for TTFT-at-risk requests on
	// suspect replicas; DuplicateCancelled counts resolved races (the losing
	// attempt is cancelled but was billed).
	Hedged, DuplicateCancelled int
	// TransferFallbacks counts prefill-to-decode migrations lost in flight
	// (prompt KV recomputed on the destination); TransferDegraded counts
	// migrations that paid a slowed link.
	TransferFallbacks, TransferDegraded int
	// UnavailableReplicaSeconds integrates failed-replica downtime over the
	// run; MTTR is the mean time-to-recovery over repaired crashes.
	UnavailableReplicaSeconds float64
	MTTR                      float64
}

// String renders the one-line fault rollup.
func (f FaultSummary) String() string {
	return fmt.Sprintf("%s [%s]: %d crashes (%d repaired, MTTR %.2fs, %.1f replica-s down), %d stragglers, %d link windows; lost %d, retried %d, dropped %d, hedged %d (%d dup cancelled), %d transfer fallbacks",
		f.Spec, f.Recovery, f.Crashes, f.Repairs, f.MTTR, f.UnavailableReplicaSeconds,
		f.Stragglers, f.LinkWindows, f.LostRequests, f.Retried, f.Dropped,
		f.Hedged, f.DuplicateCancelled, f.TransferFallbacks)
}

// ClusterSummary aggregates a multi-replica run: the cluster-wide summary
// over every request of the trace plus one summary per replica over the
// requests routed to it.
type ClusterSummary struct {
	// Aggregate summarizes all requests with the summed breakdown; its
	// Attainment and Goodput are the cluster-level SLO attainment and
	// goodput the replica-scaling experiments report.
	Aggregate *Summary
	// Replicas holds one summary per replica, in replica-ID order.
	Replicas []*Summary
	// Roles splits attainment by replica role, in role order
	// prefill/decode/mixed (only roles present appear). Empty only for
	// summaries predating role-aware runs.
	Roles []RoleStats
	// Transfer reports the KV-handoff overhead of a disaggregated run.
	Transfer TransferStats
	// Autoscale reports the fleet's replica-lifecycle economics (filled for
	// every cluster run; a static fleet shows size × duration
	// replica-seconds and no scale events). Nil only for summaries predating
	// elastic clusters.
	Autoscale *AutoscaleSummary
	// Admission reports what the overload admission gate did to the offered
	// load. Nil when no gate ran (the aggregate then covers every offered
	// request).
	Admission *AdmissionSummary
	// Faults reports what an injected fault schedule did and what recovery
	// bought back. Nil when no faults ran.
	Faults *FaultSummary
	// Prefix reports the shared-prefix KV cache activity summed over
	// replicas. Nil when prefix caching is disabled.
	Prefix *PrefixSummary
}

// TTFTAttainment returns the cluster-wide TTFT attainment fraction.
func (c *ClusterSummary) TTFTAttainment() float64 { return c.Aggregate.TTFTAttainment() }

// Attainment returns the cluster-wide SLO attainment fraction.
func (c *ClusterSummary) Attainment() float64 { return c.Aggregate.Attainment() }

// Goodput returns the cluster-wide goodput in tokens/second.
func (c *ClusterSummary) Goodput() float64 { return c.Aggregate.Goodput }

// RequestImbalance returns max/mean requests routed per replica: 1 is a
// perfectly balanced cluster, N means one replica received every request.
func (c *ClusterSummary) RequestImbalance() float64 {
	if len(c.Replicas) == 0 {
		return 0
	}
	max, total := 0, 0
	for _, r := range c.Replicas {
		total += r.Requests
		if r.Requests > max {
			max = r.Requests
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(c.Replicas))
	return float64(max) / mean
}

// String renders the aggregate summary followed by one line per replica.
// Replicas that received no traffic render as idle rather than as 0%
// attainment (an empty denominator is not a violation).
func (c *ClusterSummary) String() string {
	var b strings.Builder
	b.WriteString(c.Aggregate.String())
	for _, r := range c.Replicas {
		if r.Requests == 0 {
			fmt.Fprintf(&b, "\n  %-14s idle (no requests routed)", r.System)
			continue
		}
		fmt.Fprintf(&b, "\n  %-14s %4d reqs, attain %.1f%%, goodput %.1f tok/s, mean TPOT %.1f ms",
			r.System, r.Requests, 100*r.Attainment(), r.Goodput, 1e3*r.MeanTPOT)
	}
	return b.String()
}
