package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// benchBindLoop drives one full pilot workload — submit, bind loop,
// execute, drain — per iteration, optionally under a flight recorder,
// reporting allocations so the recorder's share of them shows.
func benchBindLoop(b *testing.B, record bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
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
		if record {
			s.AttachRecorder(obs.NewRecorder(eng))
		}
		r := &Resource{Name: "tm", URL: "slurm://tm", Machine: m, Batch: batch}
		if err := s.AddResource(r); err != nil {
			b.Fatal(err)
		}
		var failed error
		eng.Spawn("driver", func(p *sim.Proc) {
			pm := NewPilotManager(s)
			pl, err := pm.Submit(p, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
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
			descs := make([]ComputeUnitDescription, 64)
			for j := range descs {
				descs[j] = ComputeUnitDescription{
					Cores: 1,
					Body:  func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) },
				}
			}
			units, err := um.Submit(p, descs)
			if err != nil {
				failed = err
				return
			}
			um.WaitAll(p, units)
			for _, u := range units {
				if u.State() != UnitDone {
					failed = fmt.Errorf("unit %s = %v (%v)", u.ID, u.State(), u.Err)
					return
				}
			}
			pl.Cancel()
		})
		eng.Run()
		eng.Close()
		if failed != nil {
			b.Fatal(failed)
		}
	}
}

// BenchmarkBindLoopRecorderOff guards the flight recorder's opt-in
// contract: with no recorder attached every record site reduces to one
// nil check, so this benchmark must stay within noise (<2%) of the
// pre-instrumentation bind loop.
func BenchmarkBindLoopRecorderOff(b *testing.B) { benchBindLoop(b, false) }

// BenchmarkBindLoopRecorderOn measures the same workload with a
// recorder attached — the cost ceiling of full event capture.
func BenchmarkBindLoopRecorderOn(b *testing.B) { benchBindLoop(b, true) }
