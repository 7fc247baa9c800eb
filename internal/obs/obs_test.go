package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// record plays ev into r at virtual time at.
func record(t *testing.T, eng *sim.Engine, r *Recorder, at time.Duration, ev Event) {
	t.Helper()
	eng.At(at-eng.Now(), func() { r.Record(ev) })
	eng.Run()
}

func TestRecorderStampsSeqAndTime(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	record(t, eng, r, 5*time.Second, Event{Kind: KindBind, Unit: "u1"})
	record(t, eng, r, 9*time.Second, Event{Kind: KindUnitState, Unit: "u1", State: "DONE"})
	evs := r.Events()
	if len(evs) != 2 || r.Len() != 2 {
		t.Fatalf("Len = %d, events = %d, want 2", r.Len(), len(evs))
	}
	if evs[0].Seq != 0 || evs[1].Seq != 1 {
		t.Fatalf("seq = %d,%d, want 0,1", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].At != 5*time.Second || evs[1].At != 9*time.Second {
		t.Fatalf("at = %v,%v, want 5s,9s", evs[0].At, evs[1].At)
	}
	if r.Count(KindBind) != 1 || r.Count(KindUnitState) != 1 || r.Count(KindTrace) != 0 {
		t.Fatalf("counts wrong: bind=%d state=%d trace=%d",
			r.Count(KindBind), r.Count(KindUnitState), r.Count(KindTrace))
	}
	// Events() is a copy.
	evs[0].Unit = "mutated"
	if r.Events()[0].Unit != "u1" {
		t.Fatal("Events() aliases recorder storage")
	}
}

func TestRecorderCapturesEngineTrace(t *testing.T) {
	eng := sim.NewEngine()
	var buf bytes.Buffer
	eng.SetTrace(&buf)
	r := NewRecorder(eng)
	eng.At(3*time.Second, func() { eng.Tracef("hello %d", 42) })
	eng.Run()
	if r.Count(KindTrace) != 1 {
		t.Fatalf("trace events = %d, want 1", r.Count(KindTrace))
	}
	ev := r.Events()[0]
	if ev.Detail != "hello 42" || ev.At != 3*time.Second {
		t.Fatalf("trace event = %+v", ev)
	}
	if !strings.Contains(buf.String(), "hello 42") {
		t.Fatalf("SetTrace writer lost the line: %q", buf.String())
	}
}

func TestVerifyBinds(t *testing.T) {
	done := func(u string) Event { return Event{Kind: KindUnitState, Unit: u, State: "DONE"} }
	bind := func(u string) Event { return Event{Kind: KindBind, Unit: u} }
	cache := func(u, op string) Event { return Event{Kind: KindCache, Unit: u, Op: op} }

	cases := []struct {
		name   string
		events []Event
		wantOK bool
	}{
		{"normal unit binds once", []Event{bind("u1"), done("u1")}, true},
		{"done without bind", []Event{done("u1")}, false},
		{"double bind", []Event{bind("u1"), bind("u1"), done("u1")}, false},
		{"cache hit never binds", []Event{cache("u1", "hit"), done("u1")}, true},
		{"cache hit must not bind", []Event{cache("u1", "hit"), bind("u1"), done("u1")}, false},
		{"coalesced waiter never binds", []Event{cache("u2", "coalesce"), done("u2")}, true},
		{"requeued waiter binds once", []Event{
			cache("u2", "coalesce"), cache("u2", "requeue"), bind("u2"), done("u2")}, true},
		{"requeued waiter missing bind", []Event{
			cache("u2", "coalesce"), cache("u2", "requeue"), done("u2")}, false},
		{"unfinished unit ignored", []Event{bind("u1"), bind("u1")}, true},
		{"two offenders", []Event{
			done("u9"), bind("u2"), bind("u2"), done("u2"), bind("u5"), done("u5")}, false},
	}
	for _, tc := range cases {
		err := VerifyBinds(tc.events)
		if tc.wantOK && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.wantOK && err == nil {
			t.Errorf("%s: invariant violation not caught", tc.name)
		}
	}
}

// TestVerifyBindsNamesFirstOffender: with two units breaking the
// invariant, the error names the lexically first, whatever the record
// order and map order.
func TestVerifyBindsNamesFirstOffender(t *testing.T) {
	events := []Event{
		{Kind: KindUnitState, Unit: "u9", State: "DONE"},
		{Kind: KindBind, Unit: "u5"},
		{Kind: KindUnitState, Unit: "u5", State: "DONE"},
		{Kind: KindBind, Unit: "u2"},
		{Kind: KindBind, Unit: "u2"},
		{Kind: KindUnitState, Unit: "u2", State: "DONE"},
	}
	for i := 0; i < 20; i++ {
		err := VerifyBinds(events)
		if err == nil || !strings.Contains(err.Error(), "unit u2: 2 bind events, want 1") {
			t.Fatalf("VerifyBinds = %v, want the error to name u2", err)
		}
	}
}

func TestDoneUnits(t *testing.T) {
	events := []Event{
		{Kind: KindUnitState, Unit: "u1", State: "AGENT_EXECUTING"},
		{Kind: KindUnitState, Unit: "u1", State: "DONE"},
		{Kind: KindUnitState, Unit: "u2", State: "FAILED"},
		{Kind: KindUnitState, Unit: "u3", State: "DONE"},
	}
	if n := DoneUnits(events); n != 2 {
		t.Fatalf("DoneUnits = %d, want 2", n)
	}
}

// traceShape is the envelope tracecheck and the tests parse back.
type traceShape struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func TestWriteChromeTrace(t *testing.T) {
	st := func(u, s string, at time.Duration, pilot string) Event {
		return Event{Kind: KindUnitState, Unit: u, Name: "job-" + u, State: s, At: at, Pilot: pilot}
	}
	events := []Event{
		{Kind: KindBind, Unit: "u1", Pilot: "p1", Policy: "backfill", At: 1 * time.Second},
		st("u1", "AGENT_EXECUTING", 2*time.Second, "p1"),
		{Kind: KindBind, Unit: "u2", Pilot: "p1", Policy: "backfill", At: 2 * time.Second},
		st("u2", "AGENT_EXECUTING", 3*time.Second, "p1"),
		st("u1", "DONE", 12*time.Second, "p1"),
		st("u2", "DONE", 13*time.Second, "p1"),
		// Cache-completed unit: DONE with no executing state, no pilot.
		{Kind: KindCache, Unit: "u3", Op: "hit", At: 14 * time.Second},
		st("u3", "DONE", 14*time.Second, ""),
		// A unit that never finished must not produce a span.
		st("u4", "AGENT_EXECUTING", 5*time.Second, "p2"),
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}
	var tf traceShape
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	instants := 0
	meta := 0
	var u1Ts, u1Dur float64
	overlapLanes := make(map[int]bool)
	for _, te := range tf.TraceEvents {
		switch te.Ph {
		case "X":
			spans++
			if te.Args["unit"] == "u1" {
				u1Ts, u1Dur = te.Ts, *te.Dur
				overlapLanes[te.Tid] = true
			}
			if te.Args["unit"] == "u2" {
				overlapLanes[te.Tid] = true
			}
			if te.Args["unit"] == "u3" {
				if *te.Dur != 0 {
					t.Errorf("cache-completed span dur = %v, want 0", *te.Dur)
				}
				if te.Args["cached"] != true {
					t.Errorf("cache-completed span missing cached arg: %v", te.Args)
				}
			}
		case "i":
			instants++
		case "M":
			meta++
		}
	}
	if want := DoneUnits(events); spans != want {
		t.Fatalf("spans = %d, want %d (== DONE units)", spans, want)
	}
	if u1Ts != 2e6 || u1Dur != 10e6 {
		t.Errorf("u1 span ts/dur = %v/%v µs, want 2e6/10e6", u1Ts, u1Dur)
	}
	if len(overlapLanes) != 2 {
		t.Errorf("overlapping u1/u2 share a lane: lanes %v", overlapLanes)
	}
	if instants != 3 {
		t.Errorf("instants = %d, want 3 (two binds + one cache)", instants)
	}
	if meta == 0 {
		t.Error("no process_name metadata emitted")
	}
}

func TestWriteChromeTraceCellsSeparatesPids(t *testing.T) {
	cellEvents := func() []Event {
		return []Event{
			{Kind: KindUnitState, Unit: "u1", State: "AGENT_EXECUTING", At: time.Second, Pilot: "p1"},
			{Kind: KindUnitState, Unit: "u1", State: "DONE", At: 2 * time.Second, Pilot: "p1"},
		}
	}
	var buf bytes.Buffer
	err := WriteChromeTraceCells(&buf, []Cell{
		{Label: "a", Events: cellEvents()},
		{Label: "b", Events: cellEvents()},
	})
	if err != nil {
		t.Fatal(err)
	}
	var tf traceShape
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	pids := make(map[int]bool)
	names := make(map[string]bool)
	for _, te := range tf.TraceEvents {
		if te.Ph == "X" {
			pids[te.Pid] = true
		}
		if te.Ph == "M" {
			names[te.Args["name"].(string)] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("cells share pids: %v", pids)
	}
	if !names["a/p1"] || !names["b/p1"] {
		t.Fatalf("cell-qualified process names missing: %v", names)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var tf traceShape
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if tf.TraceEvents == nil || len(tf.TraceEvents) != 0 {
		t.Fatalf("empty trace should carry an empty traceEvents array, got %v", tf.TraceEvents)
	}
}

func TestSeriesJSONL(t *testing.T) {
	eng := sim.NewEngine()
	r := NewRecorder(eng)
	eng.At(10*time.Second, func() {
		r.Sample(GaugeSample{QueueDepth: 4, RunningCores: 8, TotalCores: 16, Utilization: 0.5,
			StoreFree: map[string]int64{"mem": -1}})
	})
	eng.At(20*time.Second, func() {
		r.Sample(GaugeSample{QueueDepth: 0, RunningCores: 16, TotalCores: 16, Utilization: 1})
	})
	eng.Run()
	s := r.Series()
	if s.Len() != 2 {
		t.Fatalf("series len = %d, want 2", s.Len())
	}
	if got := s.Last(); got.At != 20*time.Second || got.Utilization != 1 {
		t.Fatalf("Last = %+v", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf, "cellA"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if first["cell"] != "cellA" || first["t"] != 10.0 || first["queue_depth"] != 4.0 {
		t.Fatalf("line 0 = %v", first)
	}
	if sf, ok := first["store_free"].(map[string]any); !ok || sf["mem"] != -1.0 {
		t.Fatalf("store_free = %v", first["store_free"])
	}
}
