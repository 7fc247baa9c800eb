package pilot_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/pilot"
)

// TestDataPilotFailureMidRun is the data-side failover check: an
// attached data store is killed while compute units are still in
// flight. Units whose input survives on another replica complete; a
// unit whose input lost its last replica fails with ErrDataUnavailable
// — and only that one.
func TestDataPilotFailureMidRun(t *testing.T) {
	e := newTestEnv(t, 4)
	dm := pilot.NewDataManager(e.session)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		attached, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendMem, Label: "attached", CapacityBytes: 1 << 30,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := pl.AttachDataPilot(attached); err != nil {
			t.Error(err)
			return
		}
		if _, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendMem, Label: "other", CapacityBytes: 1 << 30,
		}); err != nil {
			t.Error(err)
			return
		}
		// One input with a surviving replica on the other store, one whose
		// only replica lives on the store about to die.
		shared, err := dm.Submit(p, pilot.DataUnitDescription{
			Name: "/f/shared", SizeBytes: 32 << 20, Replication: 2, Affinity: "attached",
		})
		if err != nil {
			t.Error(err)
			return
		}
		solo, err := dm.Submit(p, pilot.DataUnitDescription{
			Name: "/f/solo", SizeBytes: 32 << 20, Replication: 1, Affinity: "attached",
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		// Submit while the pilot is still coming up, then kill the
		// attached store: the units are mid-flight, not yet staged.
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{
			{Name: "reads-shared", Inputs: []pilot.DataRef{{Unit: shared}}},
			{Name: "reads-solo", Inputs: []pilot.DataRef{{Unit: solo}}},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := dm.FailPilot(p, attached); err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if st := units[0].State(); st != pilot.UnitDone {
			t.Errorf("unit with a surviving replica finished %v: %v", st, units[0].Err)
		}
		if st := units[1].State(); st != pilot.UnitFailed || !errors.Is(units[1].Err, pilot.ErrDataUnavailable) {
			t.Errorf("unit with no surviving replica finished %v (err %v), want FAILED with ErrDataUnavailable",
				st, units[1].Err)
		}
		if shared.ReplicaOn(attached) {
			t.Error("failed store still counted as holding the shared input")
		}
		pl.Cancel()
	})
}

// TestReplicaCacheMakesSecondPassLocal is the iterative-workload check:
// the partitions live on a shared-Lustre data pilot, the compute pilot
// has an attached in-memory store. The first pass reads remotely and
// leaves opportunistic cached replicas behind; the second pass reads
// every partition from the attached store — fully local, and faster.
func TestReplicaCacheMakesSecondPassLocal(t *testing.T) {
	const parts = 4
	e := newTestEnv(t, 4)
	dm := pilot.NewDataManager(e.session)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendLustre, Label: "shared", Lustre: e.machine.Lustre,
		}); err != nil {
			t.Error(err)
			return
		}
		cache, err := dm.AddPilot(pilot.DataPilotDescription{
			Backend: pilot.DataBackendMem, Label: "cache", CapacityBytes: 2 << 30,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := pl.AttachDataPilot(cache); err != nil {
			t.Error(err)
			return
		}
		var inputs []*pilot.DataUnit
		for i := 0; i < parts; i++ {
			du, err := dm.Submit(p, pilot.DataUnitDescription{
				Name:      fmt.Sprintf("/iter/part-%d", i),
				SizeBytes: 128 << 20,
				Affinity:  "shared",
			})
			if err != nil {
				t.Error(err)
				return
			}
			inputs = append(inputs, du)
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot ended %v", pl.State())
			return
		}
		pass := func() time.Duration {
			descs := make([]pilot.ComputeUnitDescription, parts)
			for i := range descs {
				descs[i] = pilot.ComputeUnitDescription{
					Inputs: []pilot.DataRef{{Unit: inputs[i]}},
				}
			}
			start := p.Now()
			units, err := um.Submit(p, descs)
			if err != nil {
				t.Error(err)
				return 0
			}
			um.WaitAll(p, units)
			for _, u := range units {
				if u.State() != pilot.UnitDone {
					t.Errorf("unit %s finished %v: %v", u.ID, u.State(), u.Err)
				}
			}
			return p.Now() - start
		}
		first := pass()
		for _, du := range inputs {
			if !du.CachedOn(cache) {
				t.Errorf("input %s not cached on the attached store after the first pass", du.Name())
			}
			if slices.Contains(du.Replicas(), cache) {
				t.Errorf("cached copy of %s counted as a managed replica", du.Name())
			}
			if !du.ReplicaOn(cache) {
				t.Errorf("cached copy of %s not readable", du.Name())
			}
		}
		second := pass()
		if second >= first {
			t.Errorf("second pass (%v) not faster than the first (%v) despite local caches", second, first)
		}
		pl.Cancel()
	})
}
