package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// maxAllocsPerUnit bounds TestManyTaskAllocsPerUnit. A unit allocates
// itself (state stamps and Notifier inline), its ID, its executor
// process and closure, its agent slot and its UnitContext; with the
// session's share of growing queues and heaps that measures 7.3 per unit
// on Go 1.24. The bound leaves about 20% for other toolchains, and fails
// if per-unit maps, Notifiers, subscription closures or per-wait Events
// come back (that layout measured 19.2).
const maxAllocsPerUnit = 9

// TestManyTaskAllocsPerUnit: a many-task session (2 pilots, 2,000
// one-core sleep units under backfill) allocates at most
// maxAllocsPerUnit heap objects per unit across Submit and WaitAll.
func TestManyTaskAllocsPerUnit(t *testing.T) {
	const n = 2000
	e := newEnv(t, 4, fastProfile())
	var perUnit float64
	e.eng.Spawn("driver", func(p *sim.Proc) {
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		var pls []*Pilot
		for i := 0; i < 2; i++ {
			pls = append(pls, submitPilot(t, p, e, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: 8 * time.Hour, Mode: ModeHPC,
			}))
		}
		for _, pl := range pls {
			if !pl.WaitState(p, PilotActive) {
				t.Fatalf("pilot %s ended %v", pl.ID, pl.State())
			}
			if err := um.AddPilot(pl); err != nil {
				t.Fatal(err)
			}
		}
		body := func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(4 * time.Second) }
		descs := make([]ComputeUnitDescription, n)
		for i := range descs {
			descs[i] = ComputeUnitDescription{Cores: 1, Body: body}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Fatal(err)
		}
		um.WaitAll(p, units)
		runtime.ReadMemStats(&after)
		perUnit = float64(after.Mallocs-before.Mallocs) / n
		for _, u := range units {
			if u.State() != UnitDone {
				t.Fatalf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
			}
		}
		for _, pl := range pls {
			pl.Cancel()
		}
	})
	e.eng.Run()
	e.eng.Close()
	t.Logf("%.2f allocations per unit", perUnit)
	if perUnit > maxAllocsPerUnit {
		t.Errorf("%.2f allocations per unit, want at most %d", perUnit, maxAllocsPerUnit)
	}
}
