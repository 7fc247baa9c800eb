package pilot_test

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/pilot"
)

// TestMetricsEndToEnd drives a workload through the public API with a
// live telemetry endpoint — a recorder bridged into a registry that
// ServeMetrics exposes — and scrapes it: /metrics must expose per-pilot
// labeled accounting in Prometheus text, /debug/pilot the same registry
// as JSON.
func TestMetricsEndToEnd(t *testing.T) {
	eng := sim.NewEngine()
	m := cluster.New(eng, testSpec(2))
	b := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            3,
	})
	rec := pilot.NewRecorder(eng)
	reg := pilot.NewMetricsRegistry()
	rec.OnRecord(pilot.NewMetricsBridge(reg).Apply)
	srv, err := pilot.ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	s := pilot.NewSession(eng,
		pilot.WithProfile(fastProfile()), pilot.WithSeed(42), pilot.WithRecorder(rec))
	if err := s.AddResource(&pilot.Resource{Name: "tm", Machine: m, Batch: b}); err != nil {
		t.Fatal(err)
	}
	e := &testEnv{eng: eng, machine: m, session: s}
	const units = 4
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(s)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		pl.WaitState(p, pilot.PilotActive)
		um := newUM(t, s)
		um.AddPilot(pl)
		var descs []pilot.ComputeUnitDescription
		for i := 0; i < units; i++ {
			descs = append(descs, pilot.ComputeUnitDescription{
				Cores: 1,
				Body:  func(bp *sim.Proc, ctx *pilot.UnitContext) { bp.Sleep(5 * time.Second) },
			})
		}
		us, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, us)
		pl.Cancel()
	})

	if got := reg.Total("pilot_units_done"); got != units {
		t.Fatalf("pilot_units_done total = %v; want %d", got, units)
	}

	base := "http://" + srv.Addr()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`pilot_units_done{pilot="pilot.0001",scheduler="round-robin"} 4`,
		"pilot_units_held 0",
		`bind_latency_seconds_count{pilot="pilot.0001",scheduler="round-robin"} 4`,
		"# TYPE bind_latency_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get(base + "/debug/pilot")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		Instruments []struct {
			Name string `json:"name"`
		} `json:"instruments"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/debug/pilot not valid JSON: %v", err)
	}
	names := make(map[string]bool)
	for _, in := range doc.Instruments {
		names[in.Name] = true
	}
	for _, want := range []string{"pilot_units_done", "pilot_units_held", "bind_latency_seconds"} {
		if !names[want] {
			t.Errorf("/debug/pilot missing instrument %s", want)
		}
	}
}

// TestServeMetricsListenFailureIsAnError: an address already in use
// must not panic; ServeMetrics returns the listen error and no server.
func TestServeMetricsListenFailureIsAnError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv, err := pilot.ServeMetrics(ln.Addr().String(), pilot.NewMetricsRegistry())
	if err == nil {
		srv.Close()
		t.Fatal("listening on an occupied port: err = nil, want the listen error")
	}
	if srv != nil {
		t.Fatal("a server is returned although the listen failed")
	}
}
