package experiments

import (
	"fmt"
	"sort"
	"strings"

	"adaserve/internal/metrics"
)

// Table is a column spec: how a sweep's cells print. Cells group into
// sections (optional), each opened by its header line. With a column axis
// every value column prints as its own rows × columns sub-table, titled
// "[name]", where a cell is the first one matching its row and column.
// Without one the section is a flat table: one line per cell, in cell
// order, a column per value. A blank line closes each sub-table and each
// section, and the output's final newline is trimmed (so a flat table
// without sections ends with no newline at all).
type Table[C any] struct {
	// section returns the header line of a cell's section; cells group
	// by it in first-seen order (nil: one section, no header).
	section func(C) string
	// row labels each line.
	row axis[C]
	// cols, when set, spreads cells across columns by its labels.
	cols *axis[C]
	// columns are the value columns.
	columns []column[C]
}

// axis is a labelled table dimension.
type axis[C any] struct {
	// name heads the row axis (unused for a column axis).
	name string
	// width pads every label, fmt-style: negative left-aligns.
	width int
	label func(C) string
	// order, when set, sorts a grid's labels ascending by it instead of
	// keeping them in first-seen order.
	order func(C) float64
}

// column is one value column: a header, its padding (negative
// left-aligns; unused inside a grid, which pads to the column axis) and
// the cell text.
type column[C any] struct {
	name  string
	width int
	text  func(C) string
}

// Render prints cells as the spec describes.
func (t Table[C]) Render(cells []C) string {
	var b strings.Builder
	sections := [][]C{cells}
	if t.section != nil {
		sections = groupBy(cells, t.section)
	}
	for _, sec := range sections {
		if t.section != nil {
			b.WriteString(t.section(sec[0]) + "\n")
		}
		if t.cols == nil {
			b.WriteString(pad(t.row.name, t.row.width))
			for _, col := range t.columns {
				b.WriteString(pad(col.name, col.width))
			}
			b.WriteString("\n")
			for _, c := range sec {
				b.WriteString(pad(t.row.label(c), t.row.width))
				for _, col := range t.columns {
					b.WriteString(pad(col.text(c), col.width))
				}
				b.WriteString("\n")
			}
			if t.section != nil {
				b.WriteString("\n")
			}
			continue
		}
		rows, cols := labels(sec, t.row), labels(sec, *t.cols)
		for _, col := range t.columns {
			b.WriteString(pad(t.row.name, t.row.width))
			for _, cl := range cols {
				b.WriteString(pad(cl, t.cols.width))
			}
			fmt.Fprintf(&b, "   [%s]\n", col.name)
			for _, row := range rows {
				b.WriteString(pad(row, t.row.width))
				for _, cl := range cols {
					text := ""
					for _, c := range sec {
						if t.row.label(c) == row && t.cols.label(c) == cl {
							text = col.text(c)
							break
						}
					}
					b.WriteString(pad(text, t.cols.width))
				}
				b.WriteString("\n")
			}
			b.WriteString("\n")
		}
	}
	return strings.TrimSuffix(b.String(), "\n")
}

func pad(s string, width int) string { return fmt.Sprintf("%*s", width, s) }

// groupBy splits cells by key, groups in first-seen order.
func groupBy[C any](cells []C, key func(C) string) [][]C {
	idx := map[string]int{}
	var groups [][]C
	for _, c := range cells {
		k := key(c)
		i, ok := idx[k]
		if !ok {
			i = len(groups)
			idx[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// labels returns the axis's distinct labels over cells, in first-seen
// order or sorted by the axis's order.
func labels[C any](cells []C, a axis[C]) []string {
	groups := groupBy(cells, a.label)
	if a.order != nil {
		sort.SliceStable(groups, func(i, j int) bool { return a.order(groups[i][0]) < a.order(groups[j][0]) })
	}
	out := make([]string, len(groups))
	for i, g := range groups {
		out[i] = a.label(g[0])
	}
	return out
}

// num is a numeric value column.
func num[C any](name string, width int, format string, f func(C) float64) column[C] {
	return column[C]{name: name, width: width, text: func(c C) string { return fmt.Sprintf(format, f(c)) }}
}

// readouts are the cluster-summary values the sweep tables print, keyed by
// the column header that shows them.
var readouts = map[string]func(*metrics.ClusterSummary) float64{
	"goodput":                      (*metrics.ClusterSummary).Goodput,
	"goodput tok/s":                (*metrics.ClusterSummary).Goodput,
	"attain%":                      attainPct,
	"attain %":                     attainPct,
	"attainment %":                 attainPct,
	"TPOT attainment %":            attainPct,
	"ttft%":                        ttftPct,
	"ttftAtt%":                     ttftPct,
	"TTFT attainment %":            ttftPct,
	"request imbalance (max/mean)": (*metrics.ClusterSummary).RequestImbalance,
	"KV transfer mean ms":          func(s *metrics.ClusterSummary) float64 { return 1e3 * s.Transfer.MeanLatency() },
	"goodput / replica-second": func(s *metrics.ClusterSummary) float64 {
		return s.Autoscale.GoodputPerReplicaSecond()
	},
	"replica-seconds": func(s *metrics.ClusterSummary) float64 { return s.Autoscale.ReplicaSeconds },
	"scale events (up+down)": func(s *metrics.ClusterSummary) float64 {
		return float64(s.Autoscale.ScaleUps + s.Autoscale.ScaleDowns)
	},
	"mean acc": func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MeanAcceptedPerStep },
	"sched share %": func(s *metrics.ClusterSummary) float64 {
		return 100 * s.Aggregate.Breakdown.SchedulingShare()
	},
	"maxTTFT":  func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTTFT },
	"p50TPOT":  func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P50TPOT() },
	"p99TPOT":  func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P99TPOT() },
	"p999TPOT": func(s *metrics.ClusterSummary) float64 { return s.Aggregate.P999TPOT() },
	"maxTPOT":  func(s *metrics.ClusterSummary) float64 { return s.Aggregate.MaxTPOT() },
	"degraded": func(s *metrics.ClusterSummary) float64 {
		if s.Admission == nil {
			return 0
		}
		return float64(s.Admission.Degraded)
	},
	"rejected": func(s *metrics.ClusterSummary) float64 {
		if s.Admission == nil {
			return 0
		}
		return float64(s.Admission.Rejected)
	},
	"lost":     func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.LostRequests) },
	"retried":  func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Retried) },
	"dropped":  func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Dropped) },
	"hedged":   func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.Hedged) },
	"fallback": func(s *metrics.ClusterSummary) float64 { return float64(s.Faults.TransferFallbacks) },
	"MTTR":     func(s *metrics.ClusterSummary) float64 { return s.Faults.MTTR },
	"hit%":     prefixRead(func(p *metrics.PrefixSummary) float64 { return 100 * p.HitRate() }),
	"savedTok": prefixRead(func(p *metrics.PrefixSummary) float64 { return float64(p.HitTokens) }),
	"evict":    prefixRead(func(p *metrics.PrefixSummary) float64 { return float64(p.Evictions) }),
	"reloads":  prefixRead(func(p *metrics.PrefixSummary) float64 { return float64(p.Reloads) }),
}

func attainPct(s *metrics.ClusterSummary) float64 { return 100 * s.Attainment() }
func ttftPct(s *metrics.ClusterSummary) float64   { return 100 * s.TTFTAttainment() }

// prefixRead reads a prefix-cache counter, 0 when caching was off.
func prefixRead(f func(*metrics.PrefixSummary) float64) func(*metrics.ClusterSummary) float64 {
	return func(s *metrics.ClusterSummary) float64 {
		if s.Prefix == nil {
			return 0
		}
		return f(s.Prefix)
	}
}

// sumCols builds equally padded, equally formatted value columns over the
// cells' summaries, one per readout header.
func sumCols(width int, format string, names ...string) []column[Cell] {
	cols := make([]column[Cell], len(names))
	for i, name := range names {
		f, ok := readouts[name]
		if !ok {
			panic("experiments: no readout for column " + name)
		}
		cols[i] = num(name, width, format, func(c Cell) float64 { return f(c.Sum) })
	}
	return cols
}

// SeriesTable prints a figure sweep: one row per x value (ascending), one
// column per system, the metric as the sub-table title.
func SeriesTable(xName, metric string, f func(*metrics.Summary) float64) Table[Cell] {
	return Table[Cell]{
		row: axis[Cell]{name: xName, width: -10,
			label: func(c Cell) string { return fmt.Sprintf("%.2f", c.x) },
			order: func(c Cell) float64 { return c.x }},
		cols:    &axis[Cell]{width: 18, label: func(c Cell) string { return string(c.System) }},
		columns: []column[Cell]{num(metric, 0, "%.2f", func(c Cell) float64 { return f(c.Sum.Aggregate) })},
	}
}
