// Package stats is the sample summary perfledger writes and benchjson
// reads: a median and quartiles over repeated measurements.
package stats

import "sort"

// Summary is one metric over repeated samples. Q1 and Q3 are the quartiles
// Python's statistics.quantiles(samples, n=4) gives, the rule the
// benchmark's spread bounds are stated in.
type Summary struct {
	Unit    string    `json:"unit,omitempty"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// Summarize reduces xs to its median and quartiles; all are 0 when xs is
// empty.
func Summarize(xs []float64, unit string) Summary {
	st := Summary{Unit: unit, N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return st
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st.Median = median(s)
	n := len(s)
	if n == 1 {
		st.Q1, st.Q3 = s[0], s[0]
		return st
	}
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	st.Q1, st.Q3 = q(1), q(3)
	return st
}

// Median returns the median of xs (0 when empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return median(s)
}

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}
