package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/pilot"
)

// TestTapCollectsDAGStreams: with a tap installed, the dag comparison
// publishes one labeled stream per cell, the combined Chrome trace
// parses with one span per completed unit, and the gauge series
// exports as valid JSONL tagged with the cell labels.
func TestTapCollectsDAGStreams(t *testing.T) {
	tap := new(Tap)
	SetTap(tap)
	defer SetTap(nil)
	rows, err := RunDAGComparison(42)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	if tap.Cells() != 2 {
		t.Fatalf("tap collected %d cells, want 2", tap.Cells())
	}
	if tap.Events() == 0 {
		t.Fatal("tap collected no events")
	}

	var buf bytes.Buffer
	if err := tap.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("combined trace is not valid JSON: %v", err)
	}
	spans := 0
	pids := map[int]bool{}
	for _, te := range tf.TraceEvents {
		if te.Ph == "X" {
			spans++
			pids[te.Pid] = true
		}
	}
	if want := 2 * DAGUnits(); spans != want {
		t.Fatalf("%d spans, want %d (one per completed unit across both cells)", spans, want)
	}
	if len(pids) < 2 {
		t.Fatalf("both cells' spans share %d pid(s); cells must get distinct pid ranges", len(pids))
	}

	var sb strings.Builder
	if err := tap.WriteSeriesJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no gauge samples exported")
	}
	cells := map[string]bool{}
	for _, ln := range lines {
		var g struct {
			Cell string `json:"cell"`
		}
		if err := json.Unmarshal([]byte(ln), &g); err != nil {
			t.Fatalf("series line is not valid JSON: %v\n%s", err, ln)
		}
		cells[g.Cell] = true
	}
	if !cells["dag/critical-path"] || !cells["dag/fifo"] {
		t.Fatalf("series cells = %v, want both dag cells", cells)
	}
}

// TestHooksAgreeWithEvents: on the recorded dag and cache comparisons,
// the stream each recorder hands its OnRecord hooks is exactly the one
// its Events() decodes from the compact log afterwards.
func TestHooksAgreeWithEvents(t *testing.T) {
	type watched struct {
		rec  *pilot.Recorder
		seen []pilot.TraceEvent
	}
	var recs []*watched
	recorderHook = func(rec *pilot.Recorder) {
		w := &watched{rec: rec}
		rec.OnRecord(func(ev pilot.TraceEvent) { w.seen = append(w.seen, ev) })
		recs = append(recs, w)
	}
	defer func() { recorderHook = nil }()
	if _, err := RunDAGComparison(42); err != nil {
		t.Fatal(err)
	}
	if _, err := RunCacheComparison(42); err != nil {
		t.Fatal(err)
	}
	if len(recs) < 4 {
		t.Fatalf("%d recorded cells, want at least 4 (two dag, two cache)", len(recs))
	}
	for i, w := range recs {
		got := w.rec.Events()
		if len(w.seen) == 0 || !reflect.DeepEqual(w.seen, got) {
			t.Errorf("cell %d: hooks saw %d events, Events() decodes %d, and they differ",
				i, len(w.seen), len(got))
		}
	}
}
