package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// decodeTrace parses exporter output back into the envelope shape,
// failing the test on anything that is not valid Chrome trace JSON.
func decodeTrace(t *testing.T, buf *bytes.Buffer) struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
} {
	t.Helper()
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace output not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.TraceEvents == nil {
		t.Fatalf("traceEvents must be an array, not null:\n%s", buf.String())
	}
	return doc
}

// TestWriteChromeTraceZeroDurationSpan: a unit whose executing and DONE
// states land at the same instant must still emit a complete span, with
// dur exactly 0 (not omitted, not negative).
func TestWriteChromeTraceZeroDurationSpan(t *testing.T) {
	at := 3 * time.Second
	events := []Event{
		{Kind: KindUnitState, Unit: "u1", Pilot: "p1", State: "AGENT_EXECUTING", At: at},
		{Kind: KindUnitState, Unit: "u1", Pilot: "p1", State: "DONE", At: at},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Dur == nil {
			t.Fatal("zero-duration span dropped its dur field")
		}
		if *ev.Dur != 0 {
			t.Fatalf("dur = %v; want 0", *ev.Dur)
		}
		if ev.Ts != micros(at) {
			t.Fatalf("ts = %v; want %v", ev.Ts, micros(at))
		}
	}
	if spans != 1 {
		t.Fatalf("spans = %d; want 1", spans)
	}
}

// TestWriteChromeTraceEmptyRecorder: a recorder that never saw an event
// still exports a parseable trace with an empty (non-null) event array.
func TestWriteChromeTraceEmptyRecorder(t *testing.T) {
	rec := NewRecorder(sim.NewEngine())
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, rec.Events()); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	if len(doc.TraceEvents) != 0 {
		t.Fatalf("empty recorder produced %d events", len(doc.TraceEvents))
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q; want ms", doc.DisplayTimeUnit)
	}
}

// TestWriteChromeTraceInstantOnly: a run recording only instant events
// (binds, autoscale verdicts, store failures — no unit ever completed)
// must emit valid JSON with each instant on a named track.
func TestWriteChromeTraceInstantOnly(t *testing.T) {
	events := []Event{
		{Kind: KindBind, Unit: "u1", Pilot: "p1", Policy: "backfill", At: time.Second},
		{Kind: KindAutoscale, Pilot: "p1", Policy: "queue-depth", Applied: 2, At: 2 * time.Second},
		{Kind: KindStoreFail, Pilot: "disk-a", Detail: "volume", At: 3 * time.Second},
		{Kind: KindCache, Unit: "u2", Op: "hit", At: 4 * time.Second},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	var instants, spans, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "i":
			instants++
		case "X":
			spans++
		case "M":
			meta++
		}
	}
	if instants != 4 {
		t.Fatalf("instants = %d; want 4", instants)
	}
	if spans != 0 {
		t.Fatalf("spans = %d; want 0 (nothing completed)", spans)
	}
	// Every instant's pid must be announced by a process_name metadata
	// record — Perfetto otherwise shows bare numbers.
	named := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			named[ev.Pid] = true
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" && !named[ev.Pid] {
			t.Fatalf("instant %q on unnamed pid %d", ev.Name, ev.Pid)
		}
	}
}

// TestWriteChromeTraceCellsEmptyCell: an empty cell among populated
// ones neither breaks the export nor bleeds into its neighbors' pids.
func TestWriteChromeTraceCellsEmptyCell(t *testing.T) {
	cells := []Cell{
		{Label: "empty"},
		{Label: "busy", Events: []Event{
			{Kind: KindUnitState, Unit: "u1", Pilot: "p1", State: "AGENT_EXECUTING", At: time.Second},
			{Kind: KindUnitState, Unit: "u1", Pilot: "p1", State: "DONE", At: 2 * time.Second},
		}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTraceCells(&buf, cells); err != nil {
		t.Fatal(err)
	}
	doc := decodeTrace(t, &buf)
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans != 1 {
		t.Fatalf("spans = %d; want 1", spans)
	}
}

// TestAppendScalarsMatchJSON: the exporter's float, microsecond and
// string encoders write what json.Marshal writes, across the exponent-form thresholds
// (below 1e-6, from 1e21 up) that virtual-time microseconds never
// reach, and across every escaping rule.
func TestAppendScalarsMatchJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.001, 0.5, 1e-6, 9.99e-7, 1e-7, -1e-7, 1.5e-9, 5e-324,
		123456.789, 1e20, 999999999999999999999, 1e21, -1e21, 1.5e22, 1e100, math.MaxFloat64,
		float64(math.MaxInt64) / 1e3}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendFloat(nil, f); string(got) != string(want) {
			t.Errorf("appendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	durs := []time.Duration{0, 1, -1, 10, 999, 1000, 1001, 1010, 1100, -1500, 123456789, 7 * time.Hour,
		exactMicros - 1, exactMicros, -exactMicros, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		durs = append(durs, time.Duration(rng.Int63n(int64(exactMicros))))
	}
	for _, d := range durs {
		want, _ := json.Marshal(micros(d))
		if got := appendMicros(nil, d); string(got) != string(want) {
			t.Errorf("appendMicros(%d) = %s, want %s", d, got, want)
		}
	}
	strs := []string{"", "plain-id.0001", `"q"`, `back\slash`, "<>&", "<", ">", "&", "\b\f\n\r\t", "\x00\x1f\x7f",
		"é", "✓", "\xff", "a\xc3", "  ", "emoji 🚀"}
	for _, s := range strs {
		want, _ := json.Marshal(s)
		if got := appendString(nil, s); string(got) != string(want) {
			t.Errorf("appendString(%q) = %s, want %s", s, got, want)
		}
	}
}
