package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestCounterLabels(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("units_done", "completed units", "pilot", "scheduler")
	c.With("p1", "backfill").Inc()
	c.With("p1", "backfill").Inc()
	c.With("p2", "backfill").Add(3)

	if v, ok := reg.Value("units_done", "p1", "backfill"); !ok || v != 2 {
		t.Fatalf("p1 = %v, %v; want 2, true", v, ok)
	}
	if got := reg.Total("units_done"); got != 5 {
		t.Fatalf("Total = %v; want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter delta did not panic")
		}
	}()
	NewRegistry().Counter("c", "").With().Add(-1)
}

func TestDeclareIdempotentAndMismatch(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x", "", "l")
	b := reg.Counter("x", "", "l")
	if a.inst != b.inst {
		t.Fatal("re-declaration returned a different instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("schema mismatch did not panic")
		}
	}()
	reg.Gauge("x", "", "l")
}

func TestLabelArityPanics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("x", "", "a", "b")
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	c.With("only-one")
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("held", "").With()
	g.Add(3)
	g.Add(-1)
	if v, _ := reg.Value("held"); v != 2 {
		t.Fatalf("gauge = %v; want 2", v)
	}
	g.Set(10)
	if v, _ := reg.Value("held"); v != 10 {
		t.Fatalf("gauge = %v; want 10", v)
	}
}

func TestZeroLabelInstrumentRendersAtZero(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("pilot_units_held", "held units")
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "pilot_units_held 0") {
		t.Fatalf("untouched zero-label gauge missing from exposition:\n%s", b.String())
	}
}

func TestHistogram(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat", "latency", []float64{1, 5, 10}, "pilot")
	for _, v := range []float64{0.5, 2, 7, 100} {
		h.With("p1").Observe(v)
	}
	count, sum := reg.HistogramStats("lat")
	if count != 4 || sum != 109.5 {
		t.Fatalf("stats = %d, %v; want 4, 109.5", count, sum)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_bucket{pilot="p1",le="1"} 1`,
		`lat_bucket{pilot="p1",le="5"} 2`,
		`lat_bucket{pilot="p1",le="10"} 3`,
		`lat_bucket{pilot="p1",le="+Inf"} 4`,
		`lat_sum{pilot="p1"} 109.5`,
		`lat_count{pilot="p1"} 4`,
		"# TYPE lat histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending buckets did not panic")
		}
	}()
	NewRegistry().Histogram("h", "", []float64{1, 1})
}

func TestPrometheusExpositionShape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pilot_units_done", "units finished", "pilot", "scheduler")
	c.With("pilot.0001", "backfill").Add(7)
	c.With(`we"ird\pi
lot`, "rr").Add(2)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP pilot_units_done units finished",
		"# TYPE pilot_units_done counter",
		`pilot_units_done{pilot="pilot.0001",scheduler="backfill"} 7`,
		`pilot_units_done{pilot="we\"ird\\pi\nlot",scheduler="rr"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		reg := NewRegistry()
		c := reg.Counter("c", "", "pilot")
		for _, p := range order {
			c.With(p).Inc()
		}
		var b strings.Builder
		reg.WritePrometheus(&b)
		return b.String()
	}
	if a, b := build([]string{"p3", "p1", "p2"}), build([]string{"p2", "p3", "p1"}); a != b {
		t.Fatalf("series order depends on touch order:\n%s\nvs\n%s", a, b)
	}
}

func TestSnapshotJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("done", "d", "pilot").With("p1").Add(4)
	reg.Histogram("lat", "", []float64{1}).With().Observe(0.5)

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Instruments []SnapshotInstrument `json:"instruments"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if len(doc.Instruments) != 2 {
		t.Fatalf("instruments = %d; want 2", len(doc.Instruments))
	}
	done := doc.Instruments[0]
	if done.Name != "done" || done.Type != "counter" || len(done.Series) != 1 {
		t.Fatalf("bad counter snapshot: %+v", done)
	}
	if *done.Series[0].Value != 4 || done.Series[0].Labels["pilot"] != "p1" {
		t.Fatalf("bad counter series: %+v", done.Series[0])
	}
	lat := doc.Instruments[1]
	if lat.Type != "histogram" || *lat.Series[0].Count != 1 {
		t.Fatalf("bad histogram snapshot: %+v", lat)
	}
	last := lat.Series[0].Buckets[len(lat.Series[0].Buckets)-1]
	if last.LE != "+Inf" || last.Count != 1 {
		t.Fatalf("+Inf bucket = %+v; want le=+Inf count=1", last)
	}
}

func TestConcurrentObservation(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("ops", "", "worker").With("w1")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Inc()
		}
	}()
	for i := 0; i < 50; i++ {
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		reg.Snapshot()
	}
	<-done
	if v, _ := reg.Value("ops", "w1"); v != 1000 {
		t.Fatalf("ops = %v; want 1000", v)
	}
}

func TestFormatBound(t *testing.T) {
	if got := formatBound(math.Inf(1)); got != "+Inf" {
		t.Fatalf("formatBound(+Inf) = %q", got)
	}
	if got := formatBound(0.25); got != "0.25" {
		t.Fatalf("formatBound(0.25) = %q", got)
	}
}

// TestBoundChildrenObserveTheirSeries: two With calls with the same
// labels reach one series, a child resolved but never observed renders
// at zero, a counter child refuses a negative delta, and a gauge child's
// Set renders in both expositions.
func TestBoundChildrenObserveTheirSeries(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", "pilot", "scheduler")
	c.With("p1", "backfill").Inc()
	c.With("p1", "backfill").Add(2)
	if v, ok := r.Value("c_total", "p1", "backfill"); !ok || v != 3 {
		t.Fatalf("c_total{p1,backfill} = %v, %v; want 3, true", v, ok)
	}
	r.Counter("resolved_total", "", "op").With("hit")
	if v, ok := r.Value("resolved_total", "hit"); !ok || v != 0 {
		t.Fatalf("a resolved child's series = %v, %v; want 0, true", v, ok)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("negative counter child delta did not panic")
			}
		}()
		c.With("p1", "backfill").Add(-1)
	}()
	if v, _ := r.Value("c_total", "p1", "backfill"); v != 3 {
		t.Fatalf("c_total{p1,backfill} = %v after a refused delta; want 3", v)
	}

	g := r.Gauge("g", "g", "pilot").With("p1")
	g.Add(5)
	g.Set(1.5)
	var text bytes.Buffer
	if err := r.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `g{pilot="p1"} 1.5`+"\n") {
		t.Fatalf("Set gauge missing from Prometheus text:\n%s", text.String())
	}
	var doc struct {
		Instruments []SnapshotInstrument `json:"instruments"`
	}
	var snap bytes.Buffer
	if err := r.WriteJSON(&snap); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(snap.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, in := range doc.Instruments {
		if in.Name == "g" {
			if len(in.Series) != 1 || *in.Series[0].Value != 1.5 || in.Series[0].Labels["pilot"] != "p1" {
				t.Fatalf("Set gauge in JSON snapshot = %+v; want one p1 series at 1.5", in.Series)
			}
			return
		}
	}
	t.Fatalf("gauge g missing from JSON snapshot:\n%s", snap.String())
}
