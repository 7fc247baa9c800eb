package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// teardownStream runs one seeded session whose pilot's walltime expires
// while all of its units are still executing, and returns the recorded
// event stream, one formatted event per line.
func teardownStream(t *testing.T) []string {
	t.Helper()
	e := newEnv(t, 1, fastProfile())
	rec := obs.NewRecorder(e.eng)
	e.session.AttachRecorder(rec)
	var units []*Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: 3 * time.Minute, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session)
		um.AddPilot(pl)
		descs := make([]ComputeUnitDescription, 8)
		for i := range descs {
			descs[i] = ComputeUnitDescription{Cores: 1,
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Hour) }}
		}
		var err error
		if units, err = um.Submit(p, descs); err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
	})
	e.eng.Run()
	e.eng.Close()
	for _, u := range units {
		if u.State() != UnitCanceled {
			t.Fatalf("unit %s ended %v, want CANCELED by the walltime teardown", u.ID, u.State())
		}
	}
	evs := rec.Events()
	lines := make([]string, len(evs))
	var canceled []string
	for i, ev := range evs {
		lines[i] = fmt.Sprintf("%+v", ev)
		if ev.Kind == obs.KindUnitState && ev.State == UnitCanceled.String() {
			canceled = append(canceled, ev.Unit)
		}
	}
	// Executors spawn in submission order, which is unit ID order.
	for i := range units {
		if i >= len(canceled) || canceled[i] != units[i].ID {
			t.Fatalf("units canceled in order %v, want spawn order", canceled)
		}
	}
	return lines
}

// TestAgentTeardownCancelsInSpawnOrder: units canceled at one instant
// by an agent teardown are canceled in spawn order, so two runs of the
// same seed record identical event streams.
func TestAgentTeardownCancelsInSpawnOrder(t *testing.T) {
	first := teardownStream(t)
	for run := 2; run <= 3; run++ {
		again := teardownStream(t)
		if len(again) != len(first) {
			t.Fatalf("run %d recorded %d events, run 1 %d", run, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("run %d differs from run 1 at event %d:\n  %s\n  %s", run, i, again[i], first[i])
			}
		}
	}
}
