package stats

import (
	"math"
	"testing"
)

// The quartiles must be those of Python's statistics.quantiles(xs, n=4),
// the rule the benchmark's spread bounds are stated in; the expected values
// are Python's. With two samples it extrapolates beyond them.
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{5, 1}, 3, 0, 6},
		{[]float64{3, 1, 2}, 2, 1, 3},
		{[]float64{4, 1, 3, 2}, 2.5, 1.25, 3.75},
		{[]float64{27.1, 27.5, 26.9, 31.0, 27.2}, 27.2, 27.0, 29.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 5.5, 2.75, 8.25},
	} {
		st := Summarize(tc.xs, "s")
		if st.N != len(tc.xs) || st.Unit != "s" || !near(st.Median, tc.median) || !near(st.Q1, tc.q1) || !near(st.Q3, tc.q3) {
			t.Errorf("Summarize(%v) = %+v, want median %v, q1 %v, q3 %v", tc.xs, st, tc.median, tc.q1, tc.q3)
		}
		if m := Median(tc.xs); !near(m, tc.median) {
			t.Errorf("Median(%v) = %v, want %v", tc.xs, m, tc.median)
		}
	}
	if st := Summarize([]float64{7}, ""); st.Median != 7 || st.Q1 != 7 || st.Q3 != 7 {
		t.Errorf("one sample: %+v", st)
	}
	if st := Summarize(nil, ""); st.N != 0 || st.Median != 0 || Median(nil) != 0 {
		t.Errorf("no samples: %+v", st)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
