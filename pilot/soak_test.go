package pilot_test

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/pilot"
)

// TestSoakPlainSessionMemoryStaysBounded runs one plain session (no
// recorder) through waves of units. The caller drops each wave's units,
// so the live heap after the last wave must stay within 5% of its value
// after the first: nothing in the kernel, the managers or the agent may
// keep a finished unit alive.
func TestSoakPlainSessionMemoryStaysBounded(t *testing.T) {
	const waves, perWave = 5, 2000
	e := newTestEnv(t, 2)
	var heap []uint64
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: 4 * time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot never active: %v", pl.State())
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		body := func(bp *sim.Proc, _ *pilot.UnitContext) { bp.Sleep(time.Second) }
		for w := 0; w < waves; w++ {
			if !runWave(t, p, um, perWave, body) {
				return
			}
			heap = append(heap, liveHeap())
		}
		pl.Cancel()
	})
	if len(heap) != waves {
		t.Fatalf("%d of %d waves completed", len(heap), waves)
	}
	t.Logf("live heap after each wave: %v B", heap)
	if first, last := heap[0], heap[waves-1]; float64(last) > 1.05*float64(first) {
		t.Fatalf("live heap grew from %d B after wave 1 to %d B after wave %d (+%.1f%%), want at most +5%%; per wave: %v",
			first, last, waves, 100*(float64(last)/float64(first)-1), heap)
	}
}

// TestSoakRecordedSessionGrowthPerUnit runs the same waves with the
// observability plane on: a flight recorder, the metrics bridge fed
// through OnRecord, and a Prometheus scrape (to a discard writer, no
// socket) after each wave. The recorder keeps every event and gauge
// sample for the life of the session, so the live heap grows with the
// run; this test bounds that growth per unit at 700 B, a third of the
// 2.1 KB per unit a recording took when each event was a 224-byte
// struct of seven strings. Holding a recorded session to the plain
// one's +5% needs a bounded retention window instead of the whole log,
// and is still open.
func TestSoakRecordedSessionGrowthPerUnit(t *testing.T) {
	const waves, perWave, maxPerUnit = 5, 2000, 700
	e := newTestEnv(t, 2)
	rec := pilot.NewRecorder(e.eng)
	e.session.AttachRecorder(rec)
	reg := pilot.NewMetricsRegistry()
	rec.OnRecord(pilot.NewMetricsBridge(reg).Apply)
	var heap []uint64
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: 4 * time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot never active: %v", pl.State())
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		body := func(bp *sim.Proc, _ *pilot.UnitContext) { bp.Sleep(time.Second) }
		for w := 0; w < waves; w++ {
			if !runWave(t, p, um, perWave, body) {
				return
			}
			if err := reg.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
				return
			}
			heap = append(heap, liveHeap())
		}
		pl.Cancel()
	})
	if len(heap) != waves {
		t.Fatalf("%d of %d waves completed", len(heap), waves)
	}
	perUnit := (float64(heap[waves-1]) - float64(heap[0])) / float64((waves-1)*perWave)
	t.Logf("live heap after each wave: %v B; %.0f B per unit, %d events recorded, %d samples", heap, perUnit, rec.Len(), rec.Series().Len())
	if perUnit > maxPerUnit {
		t.Fatalf("live heap grew %.0f B per unit over waves 2-%d, want at most %d B; per wave: %v",
			perUnit, waves, maxPerUnit, heap)
	}
}

// runWave submits n units, waits for them and checks they all finished.
// The units go out of scope when it returns.
func runWave(t *testing.T, p *sim.Proc, um *pilot.UnitManager, n int, body func(*sim.Proc, *pilot.UnitContext)) bool {
	descs := make([]pilot.ComputeUnitDescription, n)
	for i := range descs {
		descs[i] = pilot.ComputeUnitDescription{Cores: 1, Body: body}
	}
	units, err := um.Submit(p, descs)
	if err != nil {
		t.Error(err)
		return false
	}
	um.WaitAll(p, units)
	for _, u := range units {
		if u.State() != pilot.UnitDone {
			t.Errorf("unit %s = %v (%v)", u.ID, u.State(), u.Err)
			return false
		}
	}
	return true
}

// liveHeap forces a full collection and reads the live heap.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
