package experiments

import (
	"reflect"
	"testing"
)

// prefixGoldenRows runs the prefix sweep and reduces it to golden rows. The
// caching mode lands in the Config column ("off"/"on").
func prefixGoldenRows(t *testing.T, parallel int) []goldenRow {
	t.Helper()
	pts, err := PrefixCaching(Llama70B(), RunOptions{Seed: 1, Duration: 6, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	for _, p := range pts {
		s := p.Sum
		mode := "off"
		if p.cached {
			mode = "on"
		}
		row := goldenRow{
			Experiment: "prefix", Router: p.router, Config: mode,
			Requests: s.Aggregate.Requests, Finished: s.Aggregate.Finished,
			Attainment: s.Attainment(), TTFTAttainment: s.TTFTAttainment(),
			Goodput: s.Goodput(), Throughput: s.Aggregate.Throughput,
			MeanAccepted: s.Aggregate.MeanAcceptedPerStep,
			P50TPOT:      s.Aggregate.P50TPOT(), P99TPOT: s.Aggregate.P99TPOT(), P999TPOT: s.Aggregate.P999TPOT(),
			MaxTTFT: s.Aggregate.MaxTTFT,
		}
		if s.Prefix != nil {
			row.HitRate = s.Prefix.HitRate()
			row.SavedTokens = s.Prefix.HitTokens
			row.PrefixEvict = s.Prefix.Evictions
			row.Reloads = s.Prefix.Reloads
			row.ReloadStall = s.Prefix.ReloadStallTime
		}
		rows = append(rows, row)
	}
	return rows
}

// TestGoldenPrefixGrid pins the prefix experiment the same way bench.json
// pins the end-to-end grid: the prefix-off rows certify the caching-disabled
// path, and the cached rows pin every hit/eviction/reload count — a changed
// count is a semantic change to the cache or the affinity router and must be
// justified alongside a fixture regeneration.
func TestGoldenPrefixGrid(t *testing.T) {
	compareGolden(t, "prefix.json", prefixGoldenRows(t, 4))
}

// TestPrefixParallelDeterminism reruns the grid sequentially and with more
// workers than cells: every cell is share-nothing, so worker count must not
// change a single byte of the result.
func TestPrefixParallelDeterminism(t *testing.T) {
	seq := prefixGoldenRows(t, 1)
	par := prefixGoldenRows(t, 8)
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("prefix grid differs between -parallel 1 and -parallel 8")
	}
}

// TestPrefixAffinityWins asserts the experiment's headline: with caching on,
// prefix-affinity routing beats both load-signal baselines on TTFT
// attainment at equal offered load, and actually hits the cache doing it.
func TestPrefixAffinityWins(t *testing.T) {
	pts, err := PrefixCaching(Llama70B(), RunOptions{Seed: 1, Duration: 6, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	ttft := map[string]float64{}
	for _, p := range pts {
		if !p.cached {
			continue
		}
		ttft[p.router] = p.Sum.TTFTAttainment()
		if p.Sum.Prefix == nil {
			t.Fatalf("router %s: cached run has no prefix summary", p.router)
		}
		if p.Sum.Prefix.Hits == 0 {
			t.Errorf("router %s: cached run never hit the prefix cache", p.router)
		}
	}
	aff := ttft["prefix-affinity"]
	if aff <= ttft["round-robin"] {
		t.Errorf("prefix-affinity TTFT attainment %.3f not above round-robin %.3f", aff, ttft["round-robin"])
	}
	if aff <= ttft["least-loaded"] {
		t.Errorf("prefix-affinity TTFT attainment %.3f not above least-loaded %.3f", aff, ttft["least-loaded"])
	}
}
