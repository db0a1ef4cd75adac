// Package stats provides the counters, histograms, CDFs and text tables the
// simulator and the experiment harness use to report results in the shape of
// the paper's figures.
package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Hist is an integer-valued histogram (e.g. committed transaction footprints
// in cache blocks, paper Fig. 6).
type Hist struct {
	counts map[int]uint64
	n      uint64
}

// NewHist returns an empty histogram.
func NewHist() *Hist { return &Hist{counts: make(map[int]uint64)} }

// Add records one observation.
func (h *Hist) Add(v int) {
	h.counts[v]++
	h.n++
}

// N returns the observation count.
func (h *Hist) N() uint64 { return h.n }

// Empty-histogram contract: a Hist with zero observations has no
// distribution to summarize, so every summary accessor returns its
// documented zero value — Mean, Max and Percentile return 0, CDF returns
// all-zero probabilities — rather than whatever the implementation would
// happen to produce. TestHistEmpty pins this.

// Mean returns the average observation, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.n)
}

// Max returns the largest observation, 0 when empty. Observations may be
// negative (Add takes any int): the maximum of an all-negative histogram is
// its true (negative) largest value, not the accidental 0 the old
// zero-initialized scan returned.
func (h *Hist) Max() int {
	if h.n == 0 {
		return 0
	}
	max := math.MinInt
	for v := range h.counts {
		if v > max {
			max = v
		}
	}
	return max
}

// CDF returns P(X <= x) for each x in points (points need not be sorted).
func (h *Hist) CDF(points []int) []float64 {
	out := make([]float64, len(points))
	if h.n == 0 {
		return out
	}
	values := make([]int, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	for i, x := range points {
		var cum uint64
		for _, v := range values {
			if v > x {
				break
			}
			cum += h.counts[v]
		}
		out[i] = float64(cum) / float64(h.n)
	}
	return out
}

// Percentile returns the smallest value v with CDF(v) >= p (p in [0,1]),
// 0 when empty.
func (h *Hist) Percentile(p float64) int {
	if h.n == 0 {
		return 0
	}
	values := make([]int, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	target := p * float64(h.n)
	var cum uint64
	for _, v := range values {
		cum += h.counts[v]
		if float64(cum) >= target {
			return v
		}
	}
	return values[len(values)-1]
}

// histEntry is one (value, count) pair of the histogram's canonical JSON
// form: an array of pairs sorted by value, so equal histograms always
// serialize to identical bytes (the result store's content-addressing and
// the warm-cache byte-identity guarantee both depend on this).
type histEntry struct {
	V int    `json:"v"`
	C uint64 `json:"c"`
}

// MarshalJSON encodes the histogram as a value-sorted [{"v":..,"c":..}]
// array.
func (h *Hist) MarshalJSON() ([]byte, error) {
	values := make([]int, 0, len(h.counts))
	for v := range h.counts {
		values = append(values, v)
	}
	sort.Ints(values)
	entries := make([]histEntry, 0, len(values))
	for _, v := range values {
		entries = append(entries, histEntry{V: v, C: h.counts[v]})
	}
	return json.Marshal(entries)
}

// UnmarshalJSON decodes MarshalJSON's form, replacing the receiver's
// contents and rederiving the observation count.
func (h *Hist) UnmarshalJSON(data []byte) error {
	var entries []histEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return err
	}
	h.counts = make(map[int]uint64, len(entries))
	h.n = 0
	for _, e := range entries {
		h.counts[e.V] += e.C
		h.n += e.C
	}
	return nil
}

// Table renders aligned text tables for the harness output.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Row appends a row; values are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	t.rows = append(t.rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, hcell := range t.header {
		widths[i] = len(hcell)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Render(&sb)
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Ratio returns a/b guarding division by zero.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }
