// Package metrics provides the statistics containers the simulator reports
// from: latency summaries with percentile estimation, mean accumulators,
// and a plain-text table renderer for the experiment harness.
package metrics

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
	"time"
)

// latencyBuckets is the number of power-of-two histogram buckets; bucket i
// covers [2^i, 2^(i+1)) nanoseconds, which spans 1 ns to ~9 s.
const latencyBuckets = 34

// LatencySummary accumulates a latency distribution with O(1) recording
// and logarithmic-resolution percentiles.
type LatencySummary struct {
	Count   int64
	Sum     int64 // nanoseconds
	Max     int64
	buckets [latencyBuckets]int64
}

// Record adds one latency observation in nanoseconds. Negative values are
// clamped to zero (they indicate a scheduling bug upstream, but must not
// corrupt the histogram).
func (s *LatencySummary) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	s.Count++
	s.Sum += ns
	if ns > s.Max {
		s.Max = ns
	}
	b := bits.Len64(uint64(ns))
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	s.buckets[b]++
}

// Mean returns the average latency, or zero with no observations.
func (s *LatencySummary) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Percentile estimates the p-quantile (p in [0,1]) from the histogram;
// the result is exact to within its power-of-two bucket. When the rank
// lands on the last observation — p = 1, or any p high enough that
// ceil(p*Count) == Count, which is where p999 sits for samples smaller
// than 1000 — the recorded maximum is returned exactly rather than a
// bucket midpoint, so small-sample tail percentiles are not inflated past
// the worst latency actually observed.
func (s *LatencySummary) Percentile(p float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(math.Ceil(p * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank >= s.Count {
		return time.Duration(s.Max)
	}
	var seen int64
	for b := 0; b < latencyBuckets; b++ {
		seen += s.buckets[b]
		if seen >= rank {
			// Midpoint of bucket [2^(b-1), 2^b).
			if b == 0 {
				return 0
			}
			lo := int64(1) << (b - 1)
			hi := int64(1) << b
			return time.Duration((lo + hi) / 2)
		}
	}
	return time.Duration(s.Max)
}

// Bucket is one power-of-two histogram cell of a latency distribution.
type Bucket struct {
	// Lo and Hi bound the cell: observations in [Lo, Hi).
	Lo, Hi time.Duration
	// Count is the number of observations in the cell.
	Count int64
	// CumFrac is the cumulative fraction of observations at or below Hi.
	CumFrac float64
}

// Distribution returns the non-empty histogram cells in ascending order —
// the response-time distribution of the paper's Fig. 5.
func (s *LatencySummary) Distribution() []Bucket {
	if s.Count == 0 {
		return nil
	}
	var out []Bucket
	var cum int64
	for b := 0; b < latencyBuckets; b++ {
		cum += s.buckets[b]
		if s.buckets[b] == 0 {
			continue
		}
		lo := time.Duration(0)
		if b > 0 {
			lo = time.Duration(int64(1) << (b - 1))
		}
		out = append(out, Bucket{
			Lo:      lo,
			Hi:      time.Duration(int64(1) << b),
			Count:   s.buckets[b],
			CumFrac: float64(cum) / float64(s.Count),
		})
	}
	return out
}

// MeanAccumulator tracks the mean of a float series (e.g. per-read BER).
type MeanAccumulator struct {
	Count int64
	Sum   float64
}

// Add records one observation.
func (m *MeanAccumulator) Add(v float64) {
	m.Count++
	m.Sum += v
}

// Mean returns the running mean, or zero with no observations.
func (m *MeanAccumulator) Mean() float64 {
	if m.Count == 0 {
		return 0
	}
	return m.Sum / float64(m.Count)
}

// Table is a plain-text table for experiment output.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, Header: header}
}

// AddRow appends one row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Header))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV writes the table as CSV (header row plus data rows), for
// plotting the regenerated figures outside the harness.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVName derives a filesystem-friendly file name from the table title,
// e.g. "Fig 5: I/O response time" -> "fig-5-i-o-response-time.csv".
func (t *Table) CSVName() string {
	var b strings.Builder
	lastDash := true
	for _, r := range strings.ToLower(t.Title) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastDash = false
		case !lastDash:
			b.WriteByte('-')
			lastDash = true
		}
	}
	name := strings.TrimSuffix(b.String(), "-")
	if name == "" {
		name = "table"
	}
	return name + ".csv"
}

// FormatDuration renders a duration in microseconds with two decimals, the
// unit the paper's latency figures use.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.2fus", float64(d)/float64(time.Microsecond))
}

// FormatSci renders a float in scientific notation (for error rates).
func FormatSci(v float64) string { return fmt.Sprintf("%.3e", v) }

// FormatPct renders a fraction as a percentage with one decimal.
func FormatPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
