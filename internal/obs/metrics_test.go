package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// unitLifecycle returns the event stream of one unit flowing submit →
// bind → execute → done on pilot p under scheduler sched.
func unitLifecycle(u, p, sched string, t0 time.Duration) []Event {
	return []Event{
		{Kind: KindUnitState, Unit: u, State: "UMGR_SCHEDULING", At: t0},
		{Kind: KindBind, Unit: u, Pilot: p, Policy: sched, At: t0 + 2*time.Second},
		{Kind: KindUnitState, Unit: u, Pilot: p, State: "AGENT_EXECUTING", At: t0 + 5*time.Second},
		{Kind: KindUnitState, Unit: u, Pilot: p, State: "DONE", At: t0 + 15*time.Second},
	}
}

func TestMetricsFromEvents(t *testing.T) {
	var events []Event
	events = append(events, unitLifecycle("u1", "pilot.0000", "backfill", 0)...)
	events = append(events, unitLifecycle("u2", "pilot.0000", "backfill", time.Second)...)
	events = append(events, unitLifecycle("u3", "pilot.0001", "round-robin", 2*time.Second)...)
	events = append(events,
		// A failed unit, and a cache-completed one (no bind, no pilot).
		Event{Kind: KindUnitState, Unit: "u4", State: "UMGR_SCHEDULING", At: 3 * time.Second},
		Event{Kind: KindBind, Unit: "u4", Pilot: "pilot.0001", Policy: "round-robin", At: 4 * time.Second},
		Event{Kind: KindUnitState, Unit: "u4", Pilot: "pilot.0001", State: "AGENT_EXECUTING", At: 5 * time.Second},
		Event{Kind: KindUnitState, Unit: "u4", Pilot: "pilot.0001", State: "FAILED", At: 6 * time.Second},
		Event{Kind: KindCache, Unit: "u5", Op: "hit", At: 7 * time.Second},
		Event{Kind: KindUnitState, Unit: "u5", State: "DONE", At: 7 * time.Second},
	)
	reg := MetricsFromEvents(events)

	if v, ok := reg.Value("pilot_units_done", "pilot.0000", "backfill"); !ok || v != 2 {
		t.Errorf("units_done{pilot.0000,backfill} = %v, %v; want 2", v, ok)
	}
	if v, _ := reg.Value("pilot_units_done", "pilot.0001", "round-robin"); v != 1 {
		t.Errorf("units_done{pilot.0001,round-robin} = %v; want 1", v)
	}
	if v, _ := reg.Value("pilot_units_done", "", "cache"); v != 1 {
		t.Errorf("cache-completed unit not labeled scheduler=cache: %v", v)
	}
	if v, _ := reg.Value("pilot_units_failed", "pilot.0001"); v != 1 {
		t.Errorf("units_failed = %v; want 1", v)
	}
	if got := reg.Total("pilot_units_running"); got != 0 {
		t.Errorf("running gauge should settle to 0, got %v", got)
	}
	count, sum := reg.HistogramStats("bind_latency_seconds")
	// u1..u3 bound 2s after scheduling, u4 after 1s.
	if count != 4 || sum != 7 {
		t.Errorf("bind latency stats = %d, %v; want 4, 7", count, sum)
	}
	count, sum = reg.HistogramStats("unit_duration_seconds")
	if count != 3 || sum != 30 {
		t.Errorf("unit duration stats = %d, %v; want 3, 30", count, sum)
	}
	if v, _ := reg.Value("pilot_events_total", KindUnitState.String()); v == 0 {
		t.Error("pilot_events_total{unit-state} never counted")
	}
}

func TestBridgeHeldGaugeBalances(t *testing.T) {
	reg := metrics.NewRegistry()
	b := NewBridge(reg)
	b.Apply(Event{Kind: KindHold, Unit: "u1", Op: "input"})
	b.Apply(Event{Kind: KindHold, Unit: "u2", Op: "input"})
	if v, _ := reg.Value("pilot_units_held"); v != 2 {
		t.Fatalf("held = %v; want 2", v)
	}
	b.Apply(Event{Kind: KindRelease, Unit: "u1", Op: "input"})
	b.Apply(Event{Kind: KindRelease, Unit: "u2", Op: "failed"})
	if v, _ := reg.Value("pilot_units_held"); v != 0 {
		t.Fatalf("held = %v; want 0", v)
	}
}

func TestBridgeBoundsUnitTracking(t *testing.T) {
	reg := metrics.NewRegistry()
	b := NewBridge(reg)
	for i := 0; i < 1000; i++ {
		u := "u" + string(rune('a'+i%26)) + "." + time.Duration(i).String()
		for _, ev := range unitLifecycle(u, "pilot.0000", "backfill", time.Duration(i)*time.Second) {
			b.Apply(ev)
		}
	}
	if len(b.units) != 0 {
		t.Fatalf("bridge retains %d finished unit tracks; want 0", len(b.units))
	}
}

func TestBridgeDataEvents(t *testing.T) {
	reg := metrics.NewRegistry()
	b := NewBridge(reg)
	b.Apply(Event{Kind: KindReplica, Op: "place", Pilot: "disk-a", Bytes: 1 << 20})
	b.Apply(Event{Kind: KindReplica, Op: "place", Pilot: "disk-a", Bytes: 1 << 20})
	b.Apply(Event{Kind: KindReplica, Op: "re-replicate", Pilot: "disk-b", Bytes: 512})
	b.Apply(Event{Kind: KindStoreFail, Pilot: "disk-a", Bytes: 2 << 20})
	if v, _ := reg.Value("data_replica_ops_total", "place", "disk-a"); v != 2 {
		t.Errorf("replica ops = %v; want 2", v)
	}
	if v, _ := reg.Value("data_replica_bytes_total", "place", "disk-a"); v != 2<<20 {
		t.Errorf("replica bytes = %v; want %d", v, 2<<20)
	}
	if v, _ := reg.Value("data_store_failures_total", "disk-a"); v != 1 {
		t.Errorf("store failures = %v; want 1", v)
	}
}

func TestRecorderOnRecordFeedsBridgeLive(t *testing.T) {
	eng := sim.NewEngine()
	rec := NewRecorder(eng)
	reg := metrics.NewRegistry()
	b := NewBridge(reg)
	rec.OnRecord(b.Apply)

	for _, ev := range unitLifecycle("u1", "pilot.0000", "backfill", 0) {
		rec.Record(ev)
	}
	if v, _ := reg.Value("pilot_units_done", "pilot.0000", "backfill"); v != 1 {
		t.Fatalf("live bridge units_done = %v; want 1", v)
	}
	// The replay path over the same stream must agree with the live one.
	replay := MetricsFromEvents(rec.Events())
	if v, _ := replay.Value("pilot_units_done", "pilot.0000", "backfill"); v != 1 {
		t.Fatalf("replayed units_done = %v; want 1", v)
	}
}

func TestServeMetricsEndpoints(t *testing.T) {
	reg := MetricsFromEvents(unitLifecycle("u1", "pilot.0000", "backfill", 0))
	srv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		`pilot_units_done{pilot="pilot.0000",scheduler="backfill"} 1`,
		"pilot_units_held 0",
		`bind_latency_seconds_bucket{pilot="pilot.0000",scheduler="backfill",le="+Inf"} 1`,
		"# TYPE bind_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + srv.Addr() + "/debug/pilot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Instruments []metrics.SnapshotInstrument `json:"instruments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/pilot not valid JSON: %v\n%s", err, body)
	}
	if len(doc.Instruments) == 0 {
		t.Fatal("/debug/pilot returned no instruments")
	}
}
