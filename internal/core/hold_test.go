package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/sim"
)

// memDataPilot attaches a fresh in-memory data pilot to pl.
func memDataPilot(t *testing.T, dm *data.Manager, pl *Pilot, label string, capacity int64) *data.Pilot {
	t.Helper()
	dp, err := dm.AddPilot(data.PilotDescription{
		Backend: data.BackendMem, Label: label,
		CapacityBytes: capacity, MemBytesPerSec: 8e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl != nil {
		if err := pl.AttachDataPilot(dp); err != nil {
			t.Fatal(err)
		}
	}
	return dp
}

// TestHoldUntilInputReplicated pins the dependency-aware hold fabric: a
// unit whose input Data-Unit is still unstaged parks in UnitPendingInput
// — counted as Held, not Waiting, in the ClusterView — and is released
// into the bind queue by the input reaching StateReplicated, with no
// polling in between.
func TestHoldUntilInputReplicated(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var heldState UnitState
	var heldUnits, waitingUnits, heldCores int
	var final UnitState
	sawPending := false
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		dm := NewDataManager(e.session)
		memDataPilot(t, dm, pl, "m0", 1<<30)
		du, err := dm.Declare(data.UnitDescription{Name: "/d/late", SizeBytes: 32 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, err := um.Submit(p, []ComputeUnitDescription{{
			Cores:  2,
			Inputs: []DataRef{{Unit: du}},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		u := units[0]
		heldState = u.State()
		v := um.ClusterView()
		heldUnits, heldCores, waitingUnits = v.HeldUnits, v.HeldCores, v.WaitingUnits
		// Nothing should move the unit while the input stays unstaged.
		p.Sleep(30 * time.Second)
		if st := u.State(); st != UnitPendingInput {
			t.Errorf("unit left UnitPendingInput without its input: %v", st)
		}
		if err := dm.Stage(p, du); err != nil {
			t.Error(err)
			return
		}
		u.Wait(p)
		final = u.State()
		_, sawPending = u.Timestamp(UnitPendingInput)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if heldState != UnitPendingInput {
		t.Errorf("state right after Submit = %v, want UnitPendingInput", heldState)
	}
	if heldUnits != 1 || heldCores != 2 {
		t.Errorf("ClusterView held = %d units / %d cores, want 1 / 2", heldUnits, heldCores)
	}
	if waitingUnits != 0 {
		t.Errorf("ClusterView counted the held unit as waiting (%d)", waitingUnits)
	}
	if final != UnitDone || !sawPending {
		t.Errorf("unit finished %v (pending-input recorded: %v), want DONE via UnitPendingInput", final, sawPending)
	}
}

// TestHeldUnitFailsWhenInputRetires: an input canceled before it ever
// replicated fails the held unit with data.ErrUnavailable — and the
// unit's own declared outputs are canceled, cascading to its consumers
// (the orphaned-descendant path).
func TestHeldUnitFailsWhenInputRetires(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var upErr, downErr error
	var upSt, downSt UnitState
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		dm := NewDataManager(e.session)
		memDataPilot(t, dm, pl, "m0", 1<<30)
		ext, err := dm.Declare(data.UnitDescription{Name: "/d/never", SizeBytes: 1 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		mid, err := dm.Declare(data.UnitDescription{Name: "/d/mid", SizeBytes: 1 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		units, err := um.Submit(p, []ComputeUnitDescription{
			{Name: "up", Inputs: []DataRef{{Unit: ext}}, Outputs: []DataRef{{Unit: mid}}},
			{Name: "down", Inputs: []DataRef{{Unit: mid}}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		dm.Cancel(ext)
		um.WaitAll(p, units)
		upSt, upErr = units[0].State(), units[0].Err
		downSt, downErr = units[1].State(), units[1].Err
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if upSt != UnitFailed || !errors.Is(upErr, data.ErrUnavailable) {
		t.Errorf("upstream = %v (%v), want FAILED with ErrUnavailable", upSt, upErr)
	}
	if downSt != UnitFailed || !errors.Is(downErr, data.ErrUnavailable) {
		t.Errorf("descendant = %v (%v), want cascaded FAILED with ErrUnavailable", downSt, downErr)
	}
}

// TestPrioritySortsBindPasses: within one bind pass higher Priority
// binds first, and equal priorities keep submission order — submitted
// against a saturating pilot so the pass order decides execution order.
func TestPrioritySortsBindPasses(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	var order []string
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(pl)
		names := []string{"low", "high", "mid", "tie"}
		prios := []float64{0, 9, 4, 0}
		descs := make([]ComputeUnitDescription, len(names))
		for i := range descs {
			name := names[i]
			descs[i] = ComputeUnitDescription{
				Name: name, Cores: 8, Priority: prios[i],
				Body: func(bp *sim.Proc, ctx *UnitContext) {
					order = append(order, name)
					bp.Sleep(2 * time.Second)
				},
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	want := []string{"high", "mid", "low", "tie"}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v, want priority order %v (FIFO among equals)", order, want)
		}
	}
}

// TestCoLocateAvoidsFullStore pins the store-pressure satellite: an
// output-heavy unit avoids the pilot whose attached store cannot absorb
// its declared outputs, even when that pilot would otherwise win the
// tie; once every store is too full, pressure no longer disqualifies.
func TestCoLocateAvoidsFullStore(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	var first, second *Pilot
	var outBound, fallBound *Pilot
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pm := NewPilotManager(e.session)
		var err error
		first, err = pm.Submit(p, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		second, err = pm.Submit(p, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		dm := NewDataManager(e.session)
		// The first pilot's store is nearly full: 56 of 64 MB used.
		memDataPilot(t, dm, first, "tight", 64<<20)
		memDataPilot(t, dm, second, "roomy", 1<<30)
		if _, err := dm.Submit(p, data.UnitDescription{
			Name: "/d/ballast", SizeBytes: 56 << 20, Affinity: "tight",
		}); err != nil {
			t.Error(err)
			return
		}
		out, err := dm.Declare(data.UnitDescription{Name: "/d/big-out", SizeBytes: 32 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session, WithScheduler(SchedulerCoLocate))
		um.AddPilot(first)
		um.AddPilot(second)
		first.WaitState(p, PilotActive)
		second.WaitState(p, PilotActive)
		units, err := um.Submit(p, []ComputeUnitDescription{{
			Name: "producer", Outputs: []DataRef{{Unit: out}},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if units[0].State() != UnitDone {
			t.Errorf("producer finished %v: %v", units[0].State(), units[0].Err)
		}
		outBound = units[0].Pilot

		// Pressure must never strand a unit: with both stores too small
		// for this output, the unit still binds (plain admission order).
		huge, err := dm.Declare(data.UnitDescription{Name: "/d/huge-out", SizeBytes: 8 << 30})
		if err != nil {
			t.Error(err)
			return
		}
		fallback, err := um.Submit(p, []ComputeUnitDescription{{
			Name: "fallback", Outputs: []DataRef{{Unit: huge}},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		fallback[0].Wait(p)
		fallBound = fallback[0].Pilot
		first.Cancel()
		second.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if outBound != second {
		t.Fatalf("output-heavy unit bound to the nearly-full store's pilot, want the roomy one")
	}
	if fallBound == nil {
		t.Fatalf("unit with an oversized output never bound; pressure must only reorder, not strand")
	}
}
