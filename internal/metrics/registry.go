package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a labeled-instrument metrics registry: the telemetry
// plane's source of truth. Instruments — Counter, Gauge, Histogram —
// are declared once with an ordered label-name set; With resolves one
// time series per distinct label-value tuple
// (`units_done{pilot="p1",scheduler="backfill"}`), and the child it
// returns is how a value is observed. The
// registry renders as Prometheus text exposition (WritePrometheus, the
// /metrics surface) and as a JSON snapshot (WriteJSON, the /debug/pilot
// surface).
//
// All methods are safe for concurrent use: the simulation goroutine
// keeps observing while an HTTP scrape renders — which is the whole
// point of a *live* exposition endpoint.
type Registry struct {
	mu     sync.Mutex
	order  []*instrument
	byName map[string]*instrument
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*instrument)}
}

// instrumentKind is the Prometheus metric type of an instrument.
type instrumentKind string

const (
	kindCounter   instrumentKind = "counter"
	kindGauge     instrumentKind = "gauge"
	kindHistogram instrumentKind = "histogram"
)

// instrument is one declared metric: a family of series keyed by label
// values.
type instrument struct {
	name    string
	help    string
	kind    instrumentKind
	labels  []string  // ordered label names, fixed at declaration
	buckets []float64 // histogram upper bounds, ascending (no +Inf)

	series map[string]*series
	sorted []*series // kept sorted by key for deterministic exposition
}

// series is one label-value tuple's state.
type series struct {
	key    string
	values []string // label values, same order as instrument.labels

	value float64  // counter / gauge
	count uint64   // histogram observation count
	sum   float64  // histogram observation sum
	binCt []uint64 // histogram per-bucket cumulative-from-below counts
}

// DefBuckets are the default histogram bounds: latency-shaped seconds
// spanning sub-millisecond engine costs to the multi-minute queue waits
// virtual time produces.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 1000,
}

// Counter declares (or fetches) a monotonically increasing counter with
// the given ordered label names. Re-declaring a name with the same kind
// and labels returns the existing instrument; a mismatch panics —
// instrument schemas are program constants, not runtime inputs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return &Counter{r.declare(name, help, kindCounter, nil, labels)}
}

// Gauge declares (or fetches) a gauge — a value that can go up and down.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	return &Gauge{r.declare(name, help, kindGauge, nil, labels)}
}

// Histogram declares (or fetches) a histogram with the given bucket
// upper bounds (nil means DefBuckets; +Inf is implicit). Bounds must be
// ascending.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s: buckets not ascending", name))
		}
	}
	return &Histogram{r.declare(name, help, kindHistogram, buckets, labels)}
}

// handle ties an instrument back to its registry's lock.
type handle struct {
	reg  *Registry
	inst *instrument
}

// Counter is a monotonically increasing labeled counter.
type Counter struct{ handle }

// Gauge is a labeled value that moves both ways.
type Gauge struct{ handle }

// Histogram is a labeled distribution with cumulative buckets.
type Histogram struct{ handle }

// declare registers the instrument or returns the existing one.
func (r *Registry) declare(name, help string, kind instrumentKind, buckets []float64, labels []string) handle {
	if name == "" {
		panic("metrics: instrument needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if in, ok := r.byName[name]; ok {
		if in.kind != kind || !equalStrings(in.labels, labels) {
			panic(fmt.Sprintf("metrics: instrument %s redeclared as %s%v, was %s%v",
				name, kind, labels, in.kind, in.labels))
		}
		return handle{r, in}
	}
	in := &instrument{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: buckets,
		series:  make(map[string]*series),
	}
	if len(labels) == 0 {
		// Label-less instruments expose their zero value immediately, so
		// a gauge that never moved still renders (and scrapes as 0).
		in.touch(nil)
	}
	r.byName[name] = in
	r.order = append(r.order, in)
	return handle{r, in}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// touch returns the series for the label values, creating it at zero.
// Callers hold the registry lock.
func (in *instrument) touch(values []string) *series {
	if len(values) != len(in.labels) {
		panic(fmt.Sprintf("metrics: %s observed with %d label values, declared with %d labels",
			in.name, len(values), len(in.labels)))
	}
	key := strings.Join(values, "\xff")
	s, ok := in.series[key]
	if !ok {
		s = &series{key: key, values: append([]string(nil), values...)}
		if in.kind == kindHistogram {
			s.binCt = make([]uint64, len(in.buckets))
		}
		in.series[key] = s
		at := sort.Search(len(in.sorted), func(i int) bool { return in.sorted[i].key >= key })
		in.sorted = append(in.sorted, nil)
		copy(in.sorted[at+1:], in.sorted[at:])
		in.sorted[at] = s
	}
	return s
}

// Bound label children: the one way to observe. With resolves one
// series of an instrument for fixed label values — creating it at
// zero, so exposition shows it from then on — and returns a child that
// observes it directly: no label join, no lookup, only the registry
// lock that keeps scrapes safe. A caller that observes the same series
// often resolves it once and keeps the child.

// child is one resolved series and the registry whose lock guards it.
type child struct {
	reg *Registry
	s   *series
}

// CounterChild is one series of a Counter, resolved by Counter.With.
type CounterChild struct{ child }

// GaugeChild is one series of a Gauge, resolved by Gauge.With.
type GaugeChild struct{ child }

// HistogramChild is one series of a Histogram, resolved by
// Histogram.With.
type HistogramChild struct {
	child
	buckets []float64
}

// with resolves the series for labelValues under the registry lock.
func (h handle) with(labelValues []string) child {
	h.reg.mu.Lock()
	defer h.reg.mu.Unlock()
	return child{h.reg, h.inst.touch(labelValues)}
}

// With resolves the counter series for the label values.
func (c *Counter) With(labelValues ...string) CounterChild {
	return CounterChild{c.with(labelValues)}
}

// With resolves the gauge series for the label values.
func (g *Gauge) With(labelValues ...string) GaugeChild {
	return GaugeChild{g.with(labelValues)}
}

// With resolves the histogram series for the label values.
func (h *Histogram) With(labelValues ...string) HistogramChild {
	return HistogramChild{h.with(labelValues), h.inst.buckets}
}

// Add increments the series by delta, which must be non-negative
// (counters are monotonic).
func (c CounterChild) Add(delta float64) {
	if delta < 0 {
		panic(fmt.Sprintf("metrics: counter series %s: negative delta %g", c.s.key, delta))
	}
	c.reg.mu.Lock()
	c.s.value += delta
	c.reg.mu.Unlock()
}

// Inc increments the series by one.
func (c CounterChild) Inc() { c.Add(1) }

// Set sets the series to v.
func (g GaugeChild) Set(v float64) {
	g.reg.mu.Lock()
	g.s.value = v
	g.reg.mu.Unlock()
}

// Add moves the series by delta (negative deltas allowed).
func (g GaugeChild) Add(delta float64) {
	g.reg.mu.Lock()
	g.s.value += delta
	g.reg.mu.Unlock()
}

// Observe records one observation into the series.
func (h HistogramChild) Observe(v float64) {
	h.reg.mu.Lock()
	h.s.observe(v, h.buckets)
	h.reg.mu.Unlock()
}

// observe adds v to a histogram series with the given bucket bounds.
// Callers hold the registry lock.
func (s *series) observe(v float64, buckets []float64) {
	s.count++
	s.sum += v
	for i, ub := range buckets {
		if v <= ub {
			s.binCt[i]++
		}
	}
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers per instrument,
// one line per series, histograms expanded into cumulative _bucket
// lines plus _sum and _count. Instruments render in declaration order
// and series in label-value order, so output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, in := range r.order {
		if in.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", in.name, strings.ReplaceAll(in.help, "\n", " ")); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", in.name, in.kind); err != nil {
			return err
		}
		for _, s := range in.sorted {
			if err := in.writeSeries(w, s); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeSeries renders one series' exposition lines.
func (in *instrument) writeSeries(w io.Writer, s *series) error {
	if in.kind != kindHistogram {
		_, err := fmt.Fprintf(w, "%s%s %s\n", in.name, labelPairs(in.labels, s.values, "", 0), formatValue(s.value))
		return err
	}
	for i, ub := range in.buckets {
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			in.name, labelPairs(in.labels, s.values, "le", ub), s.binCt[i]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
		in.name, labelPairs(in.labels, s.values, "le", math.Inf(1)), s.count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", in.name, labelPairs(in.labels, s.values, "", 0), formatValue(s.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", in.name, labelPairs(in.labels, s.values, "", 0), s.count)
	return err
}

// labelPairs renders `{a="x",b="y"}` (empty string for no labels), with
// an optional trailing le= pair for histogram buckets.
func labelPairs(names, values []string, le string, ub float64) string {
	if len(names) == 0 && le == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if le != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(le)
		b.WriteString(`="`)
		b.WriteString(formatBound(ub))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatBound renders a bucket bound, with +Inf spelled the
// Prometheus way.
func formatBound(ub float64) string {
	if math.IsInf(ub, 1) {
		return "+Inf"
	}
	return formatValue(ub)
}

// SnapshotBucket is one cumulative histogram bucket in a snapshot. LE
// is the rendered upper bound ("+Inf" for the last bucket) — a string
// because encoding/json cannot represent infinity as a number.
type SnapshotBucket struct {
	LE    string `json:"le"`
	Count uint64 `json:"count"`
}

// SnapshotSeries is one series in a snapshot. Value is set for counters
// and gauges; Count/Sum/Buckets for histograms.
type SnapshotSeries struct {
	Labels  map[string]string `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets []SnapshotBucket  `json:"buckets,omitempty"`
}

// SnapshotInstrument is one instrument and its series in a snapshot.
type SnapshotInstrument struct {
	Name   string           `json:"name"`
	Type   string           `json:"type"`
	Help   string           `json:"help,omitempty"`
	Series []SnapshotSeries `json:"series"`
}

// Snapshot returns a point-in-time copy of every instrument, safe to
// encode or inspect while observation continues.
func (r *Registry) Snapshot() []SnapshotInstrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SnapshotInstrument, 0, len(r.order))
	for _, in := range r.order {
		si := SnapshotInstrument{Name: in.name, Type: string(in.kind), Help: in.help,
			Series: make([]SnapshotSeries, 0, len(in.sorted))}
		for _, s := range in.sorted {
			ss := SnapshotSeries{}
			if len(in.labels) > 0 {
				ss.Labels = make(map[string]string, len(in.labels))
				for i, n := range in.labels {
					ss.Labels[n] = s.values[i]
				}
			}
			if in.kind == kindHistogram {
				count, sum := s.count, s.sum
				ss.Count, ss.Sum = &count, &sum
				for i, ub := range in.buckets {
					ss.Buckets = append(ss.Buckets, SnapshotBucket{LE: formatBound(ub), Count: s.binCt[i]})
				}
				ss.Buckets = append(ss.Buckets, SnapshotBucket{LE: "+Inf", Count: s.count})
			} else {
				v := s.value
				ss.Value = &v
			}
			si.Series = append(si.Series, ss)
		}
		out = append(out, si)
	}
	return out
}

// WriteJSON renders the snapshot as one JSON document — the
// /debug/pilot surface.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Instruments []SnapshotInstrument `json:"instruments"`
	}{r.Snapshot()})
}

// Value reads one counter/gauge series back (0, false when the series
// was never touched) — the path harnesses pull reported numbers out of
// the telemetry plane by.
func (r *Registry) Value(name string, labelValues ...string) (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.byName[name]
	if !ok || in.kind == kindHistogram {
		return 0, false
	}
	s, ok := in.series[strings.Join(labelValues, "\xff")]
	if !ok {
		return 0, false
	}
	return s.value, true
}

// Total sums every series of a counter or gauge — e.g. units done
// across all pilots.
func (r *Registry) Total(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.byName[name]
	if !ok || in.kind == kindHistogram {
		return 0
	}
	var total float64
	for _, s := range in.sorted {
		total += s.value
	}
	return total
}

// HistogramStats sums a histogram's count and sum across every series.
func (r *Registry) HistogramStats(name string) (count uint64, sum float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	in, ok := r.byName[name]
	if !ok || in.kind != kindHistogram {
		return 0, 0
	}
	for _, s := range in.sorted {
		count += s.count
		sum += s.sum
	}
	return count, sum
}
