package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/sim"
)

// accountingEnv builds the one-pilot harness the accounting tests
// share; runtime bounds the pilot's walltime.
func accountingRun(t *testing.T, runtime, body time.Duration, n int) (pv *PilotView, passes, offered int64) {
	t.Helper()
	eng := sim.NewEngine()
	m := cluster.New(eng, testSpec(2))
	batch := hpc.NewBatch(m, hpc.Config{
		SchedCycle:      10 * time.Second,
		Prolog:          2 * time.Second,
		MinQueueWait:    time.Second,
		DefaultWallTime: 4 * time.Hour,
		Seed:            3,
	})
	s := NewSession(eng, fastProfile(), 42)
	r := &Resource{Name: "tm", URL: "slurm://tm", Machine: m, Batch: batch}
	if err := s.AddResource(r); err != nil {
		t.Fatal(err)
	}
	var failed error
	eng.Spawn("driver", func(p *sim.Proc) {
		pm := NewPilotManager(s)
		pl, err := pm.Submit(p, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: runtime, Mode: ModeHPC,
		})
		if err != nil {
			failed = err
			return
		}
		if !pl.WaitState(p, PilotActive) {
			failed = fmt.Errorf("pilot ended %v", pl.State())
			return
		}
		um, err := NewUnitManager(s)
		if err != nil {
			failed = err
			return
		}
		um.AddPilot(pl)
		descs := make([]ComputeUnitDescription, n)
		for j := range descs {
			descs[j] = ComputeUnitDescription{
				Cores: 1,
				Body:  func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(body) },
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			failed = err
			return
		}
		um.WaitAll(p, units)
		pv = um.ClusterView().For(pl)
		passes, offered = um.BindPassStats()
		pl.Cancel()
	})
	eng.Run()
	eng.Close()
	if failed != nil {
		t.Fatal(failed)
	}
	return pv, passes, offered
}

// TestPilotCompletionCounters pins the always-on per-pilot accounting:
// lifetime done totals surface in PilotView and the bind loop reports
// its pass/offer work.
func TestPilotCompletionCounters(t *testing.T) {
	pv, passes, offered := accountingRun(t, time.Hour, time.Second, 8)
	if pv.DoneUnits != 8 {
		t.Fatalf("DoneUnits = %d; want 8", pv.DoneUnits)
	}
	if pv.FailedUnits != 0 {
		t.Fatalf("FailedUnits = %d; want 0", pv.FailedUnits)
	}
	if passes < 1 {
		t.Fatalf("passes = %d; want >= 1", passes)
	}
	if offered < 8 {
		t.Fatalf("offered = %d; want >= 8", offered)
	}
	if pv.InFlightUnits() != 0 {
		t.Fatalf("InFlightUnits = %d after drain; want 0", pv.InFlightUnits())
	}
}

// TestPilotFailureCounters: units interrupted by the pilot's walltime
// expiry were bound to it, so its FailedUnits ledger must record them.
func TestPilotFailureCounters(t *testing.T) {
	// Units sleep far past the pilot's runtime: whatever is executing at
	// expiry fails while still bound to the pilot.
	pv, _, _ := accountingRun(t, 10*time.Minute, 2*time.Hour, 4)
	if pv.DoneUnits != 0 {
		t.Fatalf("DoneUnits = %d; want 0", pv.DoneUnits)
	}
	if pv.FailedUnits < 1 {
		t.Fatalf("FailedUnits = %d; want >= 1", pv.FailedUnits)
	}
}
