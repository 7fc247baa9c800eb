// Package metrics provides the small statistics and table-formatting
// helpers the experiment harness uses to report paper-style results.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample accumulates duration observations. The zero value keeps every
// observation; NewReservoir bounds memory at a fixed capacity by
// reservoir sampling (Algorithm R), trading exact quantiles for a
// uniform subsample — count, mean and extrema stay exact either way.
type Sample struct {
	values []time.Duration
	// sorted caches the ascending order for Percentile; Add invalidates
	// it, so repeated quantile reads between observations sort once.
	sorted []time.Duration

	// capacity bounds len(values) when positive (reservoir mode);
	// n, sum, min and max track the full stream exactly in both modes.
	capacity int
	n        int64
	sum      time.Duration
	min, max time.Duration
	rng      uint64
}

// NewReservoir creates a capacity-bounded sample: once capacity
// observations are held, each further observation replaces a uniformly
// random held one with probability capacity/n, so quantiles are
// estimated over a uniform subsample of the stream. The seed fixes the
// replacement sequence — same stream, same seed, same estimates.
func NewReservoir(capacity int, seed int64) *Sample {
	if capacity <= 0 {
		panic("metrics: reservoir capacity must be positive")
	}
	state := uint64(seed)*2685821657736338717 + 0x9E3779B97F4A7C15
	return &Sample{capacity: capacity, rng: state}
}

// next advances the xorshift64* state — a private generator so
// reservoir behaviour never depends on the global math/rand stream.
func (s *Sample) next() uint64 {
	s.rng ^= s.rng >> 12
	s.rng ^= s.rng << 25
	s.rng ^= s.rng >> 27
	return s.rng * 2685821657736338717
}

// Add appends an observation (in reservoir mode, possibly displacing a
// held one).
func (s *Sample) Add(d time.Duration) {
	s.n++
	if s.n == 1 || d < s.min {
		s.min = d
	}
	if s.n == 1 || d > s.max {
		s.max = d
	}
	s.sum += d
	if s.capacity == 0 || len(s.values) < s.capacity {
		s.values = append(s.values, d)
		s.sorted = nil
		return
	}
	if j := int(s.next() % uint64(s.n)); j < s.capacity {
		s.values[j] = d
		s.sorted = nil
	}
}

// N returns the number of observations in the stream (not the held
// subsample).
func (s *Sample) N() int { return int(s.n) }

// Held returns how many observations the sample currently retains —
// N() when unbounded, at most the capacity in reservoir mode.
func (s *Sample) Held() int { return len(s.values) }

// Mean returns the arithmetic mean of the full stream (0 when empty).
func (s *Sample) Mean() time.Duration {
	if s.n == 0 {
		return 0
	}
	return s.sum / time.Duration(s.n)
}

// Std returns the population standard deviation — over the held
// subsample in reservoir mode.
func (s *Sample) Std() time.Duration {
	n := len(s.values)
	if n < 2 {
		return 0
	}
	mean := s.Mean().Seconds()
	var acc float64
	for _, v := range s.values {
		d := v.Seconds() - mean
		acc += d * d
	}
	return time.Duration(math.Sqrt(acc/float64(n)) * 1e9)
}

// Min returns the smallest observation of the full stream (0 when
// empty) — exact even in reservoir mode.
func (s *Sample) Min() time.Duration { return s.min }

// Max returns the largest observation of the full stream.
func (s *Sample) Max() time.Duration { return s.max }

// Percentile returns the q-quantile (0 ≤ q ≤ 1) of the sample by the
// nearest-rank method on a sorted copy: the smallest observation v such
// that at least q·N observations are ≤ v. Out-of-range q values clamp
// to the extrema; an empty sample yields 0.
func (s *Sample) Percentile(q float64) time.Duration {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if s.sorted == nil {
		s.sorted = append(make([]time.Duration, 0, n), s.values...)
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.sorted[rank-1]
}

// P50 returns the median observation.
func (s *Sample) P50() time.Duration { return s.Percentile(0.50) }

// P95 returns the 95th-percentile observation.
func (s *Sample) P95() time.Duration { return s.Percentile(0.95) }

// Seconds formats a duration as seconds with one decimal, the unit used
// throughout the paper's figures.
func Seconds(d time.Duration) string {
	return fmt.Sprintf("%.1f", d.Seconds())
}

// Table renders aligned text tables.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded.
func (t *Table) AddRow(cells ...string) {
	for len(cells) < len(t.header) {
		cells = append(cells, "")
	}
	t.rows = append(t.rows, cells)
}

// Write renders the table to w.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
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
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, row := range t.rows {
		line(row)
	}
}
