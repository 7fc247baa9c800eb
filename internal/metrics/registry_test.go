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
	c.Inc("p1", "backfill")
	c.Inc("p1", "backfill")
	c.Add(3, "p2", "backfill")

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
	NewRegistry().Counter("c", "").Add(-1)
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
	c.Inc("only-one")
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("held", "")
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
		h.Observe(v, "p1")
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
	c.Add(7, "pilot.0001", "backfill")
	c.Add(2, `we"ird\pi
lot`, "rr")

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
			c.Inc(p)
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
	reg.Counter("done", "d", "pilot").Add(4, "p1")
	reg.Histogram("lat", "", []float64{1}).Observe(0.5)

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
	c := reg.Counter("ops", "", "worker")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			c.Inc("w1")
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

// TestBoundChildrenObserveTheirSeries: a child resolved with With
// observes the same series as the labeled calls, and exposition is
// byte for byte what the labeled calls alone produce.
func TestBoundChildrenObserveTheirSeries(t *testing.T) {
	build := func(bound bool) *Registry {
		r := NewRegistry()
		c := r.Counter("c_total", "c", "pilot", "scheduler")
		g := r.Gauge("g", "g", "pilot")
		h := r.Histogram("h_seconds", "h", []float64{1, 10}, "pilot")
		if bound {
			cc, gc, hc := c.With("p1", "backfill"), g.With("p1"), h.With("p1")
			cc.Inc()
			cc.Add(2)
			gc.Add(5)
			gc.Add(-2)
			hc.Observe(0.5)
			hc.Observe(20)
			g.With("p2").Add(7)
		} else {
			c.Inc("p1", "backfill")
			c.Add(2, "p1", "backfill")
			g.Add(5, "p1")
			g.Add(-2, "p1")
			h.Observe(0.5, "p1")
			h.Observe(20, "p1")
			g.Add(7, "p2")
		}
		return r
	}
	var bound, labeled bytes.Buffer
	if err := build(true).WritePrometheus(&bound); err != nil {
		t.Fatal(err)
	}
	if err := build(false).WritePrometheus(&labeled); err != nil {
		t.Fatal(err)
	}
	if bound.String() != labeled.String() {
		t.Fatalf("bound children expose\n%s\nlabeled calls expose\n%s", bound.String(), labeled.String())
	}
	r := NewRegistry()
	r.Counter("resolved_total", "", "op").With("hit")
	if v, ok := r.Value("resolved_total", "hit"); !ok || v != 0 {
		t.Fatalf("a resolved child's series = %v, %v; want 0, true", v, ok)
	}
}
