package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/sim"
)

// schedulerConformanceEnvs builds the two-pilot scenario shared by the
// policy-conformance suite: one fast plain-HPC pilot and one slow Mode I
// YARN pilot on a 4-node machine.
func conformancePilots(t *testing.T, p *sim.Proc, e *env) (hpc, yarn *Pilot) {
	t.Helper()
	pm := NewPilotManager(e.session)
	hpcPl, err := pm.Submit(p, PilotDescription{
		Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: ModeHPC,
	})
	if err != nil {
		t.Fatal(err)
	}
	yarnPl, err := pm.Submit(p, PilotDescription{
		Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: ModeYARN,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hpcPl, yarnPl
}

// runConformance executes n short units under the named policy over two
// live pilots and returns, per unit, how often its body ran and which
// pilot it finished on.
func runConformance(t *testing.T, policy string, n int) (runs []int, pilots []string, states []UnitState) {
	t.Helper()
	e := newEnv(t, 4, fastProfile())
	runs = make([]int, n)
	pilots = make([]string, n)
	states = make([]UnitState, n)
	e.eng.Spawn("driver", func(p *sim.Proc) {
		hpcPl, yarnPl := conformancePilots(t, p, e)
		um := newUM(t, e.session, WithScheduler(policy))
		um.AddPilot(hpcPl)
		um.AddPilot(yarnPl)
		hpcPl.WaitState(p, PilotActive)
		yarnPl.WaitState(p, PilotActive)
		descs := make([]ComputeUnitDescription, n)
		for i := range descs {
			i := i
			descs[i] = ComputeUnitDescription{
				Cores: 1,
				Body: func(bp *sim.Proc, ctx *UnitContext) {
					runs[i]++
					bp.Sleep(2 * time.Second)
				},
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		if len(units) != n {
			t.Errorf("policy %s: Submit returned %d units, want %d", policy, len(units), n)
			return
		}
		um.WaitAll(p, units)
		for i, u := range units {
			states[i] = u.State()
			if u.Pilot != nil {
				pilots[i] = u.Pilot.ID
			}
		}
		hpcPl.Cancel()
		yarnPl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	return runs, pilots, states
}

// TestUnitSchedulerConformance runs the invariants every registered
// policy must uphold: no unit lost (every submitted unit reaches a final
// state), no double-bind (no body runs twice), failover rebinding (units
// queued on a dying pilot complete elsewhere), and determinism under a
// fixed seed.
func TestUnitSchedulerConformance(t *testing.T) {
	for _, policy := range UnitSchedulers() {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			t.Run("NoUnitLostNoDoubleBind", func(t *testing.T) {
				const n = 10
				runs, _, states := runConformance(t, policy, n)
				for i := 0; i < n; i++ {
					if !states[i].Final() {
						t.Errorf("unit %d never reached a final state: %v", i, states[i])
					}
					if states[i] == UnitDone && runs[i] != 1 {
						t.Errorf("unit %d body ran %d times, want exactly 1", i, runs[i])
					}
					if runs[i] > 1 {
						t.Errorf("unit %d double-bound: body ran %d times", i, runs[i])
					}
					if states[i] != UnitDone {
						t.Errorf("unit %d = %v, want DONE on two live pilots", i, states[i])
					}
				}
			})
			t.Run("FailoverRebinding", func(t *testing.T) {
				testFailoverRebinding(t, policy)
			})
			t.Run("Deterministic", func(t *testing.T) {
				_, pilots1, states1 := runConformance(t, policy, 8)
				_, pilots2, states2 := runConformance(t, policy, 8)
				for i := range pilots1 {
					if pilots1[i] != pilots2[i] || states1[i] != states2[i] {
						t.Fatalf("placement not deterministic: run1 %v/%v, run2 %v/%v",
							pilots1, states1, pilots2, states2)
					}
				}
			})
		})
	}
}

// testFailoverRebinding cancels a pilot whose agent has not yet come up,
// so any units the policy bound to it are still in the coordination
// store: they must be rebound and finish on the surviving pilot.
func testFailoverRebinding(t *testing.T, policy string) {
	e := newEnv(t, 4, fastProfile())
	const n = 8
	ran := 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		hpcPl, yarnPl := conformancePilots(t, p, e)
		um := newUM(t, e.session, WithScheduler(policy))
		um.AddPilot(hpcPl)
		um.AddPilot(yarnPl)
		// The YARN pilot is still spawning its cluster when the units are
		// submitted: eager policies bind half the units to it, where they
		// sit queued because its agent is not pulling yet.
		hpcPl.WaitState(p, PilotActive)
		descs := make([]ComputeUnitDescription, n)
		for i := range descs {
			descs[i] = ComputeUnitDescription{
				Cores: 1,
				Body:  func(bp *sim.Proc, ctx *UnitContext) { ran++; bp.Sleep(time.Second) },
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		yarnPl.Cancel()
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != UnitDone {
				t.Errorf("unit %s = %v (%v), want DONE via failover", u.ID, u.State(), u.Err)
			}
			if u.Pilot != hpcPl {
				t.Errorf("unit %s finished on %v, want the surviving pilot", u.ID, u.Pilot)
			}
		}
		hpcPl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if ran != n {
		t.Fatalf("%d bodies ran, want %d (each exactly once)", ran, n)
	}
}

// TestLeastLoadedSpreadsByInFlight pins the least-loaded signal: with
// one pilot already busy, the next unit goes to the idle one.
func TestLeastLoadedSpreadsByInFlight(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	var first, second *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		hpcPl, yarnPl := conformancePilots(t, p, e)
		um := newUM(t, e.session, WithScheduler(SchedulerLeastLoaded))
		um.AddPilot(hpcPl)
		um.AddPilot(yarnPl)
		hpcPl.WaitState(p, PilotActive)
		yarnPl.WaitState(p, PilotActive)
		long, err := um.Submit(p, []ComputeUnitDescription{{
			Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(5 * time.Minute) },
		}})
		if err != nil {
			t.Error(err)
			return
		}
		first = long[0]
		// The first pilot now carries one in-flight unit; the next unit
		// must land on the other one.
		next, err := um.Submit(p, []ComputeUnitDescription{{
			Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) },
		}})
		if err != nil {
			t.Error(err)
			return
		}
		second = next[0]
		second.Wait(p)
		hpcPl.Cancel()
		yarnPl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if first.Pilot == nil || second.Pilot == nil || first.Pilot == second.Pilot {
		t.Fatalf("least-loaded put both units on the same pilot (%v)", first.Pilot)
	}
}

// TestBackfillLateBindsUntilActive: under the backfill policy, units
// submitted before any pilot is Active park unbound, then bind and run
// once the pilot comes up.
func TestBackfillLateBindsUntilActive(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var preBind, postBind UnitState
	done := 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(pl)
		units, err := um.Submit(p, []ComputeUnitDescription{{
			Body: func(bp *sim.Proc, ctx *UnitContext) { done++ },
		}})
		if err != nil {
			t.Error(err)
			return
		}
		preBind = units[0].State()
		um.WaitAll(p, units)
		postBind = units[0].State()
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if preBind != UnitSchedulingUM {
		t.Fatalf("backfill bound a unit before the pilot was Active (state %v)", preBind)
	}
	if postBind != UnitDone || done != 1 {
		t.Fatalf("late-bound unit = %v, ran %d times", postBind, done)
	}
}

// TestBackfillRespectsFreeCapacity: with a single 8-core-node pilot and
// 3-core units, the backfill manager never has more than 2 units bound
// and unfinished at once — the third waits in the manager, not on the
// agent.
func TestBackfillRespectsFreeCapacity(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	maxInFlight := 0
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(pl)
		descs := make([]ComputeUnitDescription, 6)
		for i := range descs {
			descs[i] = ComputeUnitDescription{
				Cores: 3,
				Body:  func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(10 * time.Second) },
			}
		}
		units, err := um.Submit(p, descs)
		if err != nil {
			t.Error(err)
			return
		}
		probe := func() {
			cur := 0
			for _, u := range units {
				if st := u.State(); st >= UnitPendingAgent && !st.Final() {
					cur++
				}
			}
			if cur > maxInFlight {
				maxInFlight = cur
			}
		}
		for i := 0; i < 40; i++ {
			probe()
			p.Sleep(2 * time.Second)
		}
		um.WaitAll(p, units)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if maxInFlight != 2 {
		t.Fatalf("max bound-and-unfinished units = %d, want 2 (8 cores / 3 per unit)", maxInFlight)
	}
}

// TestSentinelErrorsMatchable asserts every sentinel is produced by its
// failure mode and matches through errors.Is despite wrapping.
func TestSentinelErrorsMatchable(t *testing.T) {
	e := newEnv(t, 1, fastProfile())

	if _, err := NewUnitManager(e.session, WithScheduler("no-such-policy")); !errors.Is(err, ErrUnknownScheduler) {
		t.Errorf("NewUnitManager(bad policy) = %v, want ErrUnknownScheduler", err)
	}

	var noPilotsErr, noLiveErr, unschedErr, umUnschedErr, resErr, backendErr error
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pm := NewPilotManager(e.session)
		_, resErr = pm.Submit(p, PilotDescription{Resource: "nope", Nodes: 1, Runtime: time.Hour})
		_, backendErr = pm.Submit(p, PilotDescription{Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "no-such-backend"})

		um := newUM(t, e.session)
		_, noPilotsErr = um.Submit(p, []ComputeUnitDescription{{}})

		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl.WaitState(p, PilotActive)
		um.AddPilot(pl)

		// Agent-level unschedulable: more cores than the largest node.
		big, err := um.Submit(p, []ComputeUnitDescription{{Cores: 999}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, big)
		unschedErr = big[0].Err

		// Manager-level unschedulable: backfill rejects it up front.
		bum := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		bum.AddPilot(pl)
		bigToo, err := bum.Submit(p, []ComputeUnitDescription{{Cores: 999}})
		if err != nil {
			t.Error(err)
			return
		}
		bum.WaitAll(p, bigToo)
		umUnschedErr = bigToo[0].Err

		pl.Cancel()
		pl.Wait(p)
		dead, err := um.Submit(p, []ComputeUnitDescription{{}})
		if err != nil {
			t.Error(err)
			return
		}
		noLiveErr = dead[0].Err
	})
	e.eng.Run()
	e.eng.Close()

	for _, cse := range []struct {
		name     string
		err      error
		sentinel error
	}{
		{"ErrUnknownResource", resErr, ErrUnknownResource},
		{"ErrUnknownBackend", backendErr, ErrUnknownBackend},
		{"ErrNoPilots", noPilotsErr, ErrNoPilots},
		{"agent ErrUnschedulable", unschedErr, ErrUnschedulable},
		{"manager ErrUnschedulable", umUnschedErr, ErrUnschedulable},
		{"ErrNoLivePilot", noLiveErr, ErrNoLivePilot},
	} {
		if !errors.Is(cse.err, cse.sentinel) {
			t.Errorf("%s: got %v, does not match sentinel", cse.name, cse.err)
		}
	}
}

// rogueScheduler returns a pilot that was never offered to it — a
// misbehaving custom policy the manager must contain.
type rogueScheduler struct{ foreign *Pilot }

func (*rogueScheduler) Name() string { return "rogue" }

func (s *rogueScheduler) Pick(_ *sim.Proc, _ *Unit, _ []*PilotView) (*Pilot, error) {
	return s.foreign, nil
}

// TestRoguePolicyFailsUnitNotManager: a policy picking a pilot outside
// the offered candidates — foreign to the manager, or the manager's own
// pilot after it died — fails the unit cleanly instead of corrupting
// bookkeeping, panicking, or spinning the bind loop forever.
func TestRoguePolicyFailsUnitNotManager(t *testing.T) {
	rogue := &rogueScheduler{}
	if err := RegisterUnitScheduler("rogue", func() UnitScheduler { return rogue }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unitSchedulers.Unregister("rogue") })
	scenario := func(deadManaged bool) (UnitState, error) {
		e := newEnv(t, 4, fastProfile())
		var st UnitState
		var cause error
		e.eng.Spawn("driver", func(p *sim.Proc) {
			pm := NewPilotManager(e.session)
			managed, err := pm.Submit(p, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
			})
			if err != nil {
				t.Error(err)
				return
			}
			other, err := pm.Submit(p, PilotDescription{
				Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
			})
			if err != nil {
				t.Error(err)
				return
			}
			um := newUM(t, e.session, WithScheduler("rogue"))
			um.AddPilot(managed)
			managed.WaitState(p, PilotActive)
			if deadManaged {
				// The policy keeps returning the manager's own pilot
				// after it died (a live pilot remains, so the pass runs).
				um.AddPilot(other)
				other.WaitState(p, PilotActive)
				other.Cancel()
				other.Wait(p)
				rogue.foreign = other
			} else {
				rogue.foreign = other // live, but never added to um
			}
			units, err := um.Submit(p, []ComputeUnitDescription{{}})
			if err != nil {
				t.Error(err)
				return
			}
			um.WaitAll(p, units)
			st, cause = units[0].State(), units[0].Err
			managed.Cancel()
			other.Cancel()
		})
		e.eng.Run()
		e.eng.Close()
		return st, cause
	}
	for _, dead := range []bool{false, true} {
		st, cause := scenario(dead)
		if st != UnitFailed || cause == nil {
			t.Fatalf("deadManaged=%v: unit = %v (err %v), want FAILED with a cause", dead, st, cause)
		}
	}
}

// TestAddResourceDoesNotMutateCaller pins the satellite fix: an empty
// URL defaults at use time, and the caller's Resource value stays
// untouched.
func TestAddResourceDoesNotMutateCaller(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	r := &Resource{Name: "bare", Machine: e.machine, Batch: e.batch}
	if err := e.session.AddResource(r); err != nil {
		t.Fatal(err)
	}
	if r.URL != "" {
		t.Fatalf("AddResource wrote URL %q into the caller's Resource", r.URL)
	}
	if got, want := r.EffectiveURL(), "slurm://bare"; got != want {
		t.Fatalf("EffectiveURL() = %q, want %q", got, want)
	}
	// The defaulted URL must still drive a working SAGA submission.
	ok := false
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "bare", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		ok = pl.WaitState(p, PilotActive)
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if !ok {
		t.Fatal("pilot on URL-less resource never became active")
	}
	if r.URL != "" {
		t.Fatalf("submission wrote URL %q into the caller's Resource", r.URL)
	}
}

// TestRebindDeterministicOrder: orphans of a dead pilot re-enter the
// queue in unit-ID order, keeping failover deterministic.
func TestRebindDeterministicOrder(t *testing.T) {
	sequence := func() string {
		e := newEnv(t, 4, fastProfile())
		var order string
		e.eng.Spawn("driver", func(p *sim.Proc) {
			hpcPl, yarnPl := conformancePilots(t, p, e)
			um := newUM(t, e.session)
			um.AddPilot(hpcPl)
			um.AddPilot(yarnPl)
			hpcPl.WaitState(p, PilotActive)
			descs := make([]ComputeUnitDescription, 6)
			for i := range descs {
				descs[i] = ComputeUnitDescription{
					Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) },
				}
			}
			units, err := um.Submit(p, descs)
			if err != nil {
				t.Error(err)
				return
			}
			yarnPl.Cancel()
			um.WaitAll(p, units)
			for _, u := range units {
				order += fmt.Sprintf("%s->%s;", u.ID, u.Pilot.ID)
			}
			hpcPl.Cancel()
		})
		e.eng.Run()
		e.eng.Close()
		return order
	}
	if a, b := sequence(), sequence(); a != b {
		t.Fatalf("failover order not deterministic:\n  %s\n  %s", a, b)
	}
}

// TestLocalityPrefersDataReplicaBytes: the typed-Inputs signal. Two
// pilots with attached in-memory data pilots; the unit's input bytes
// live on the second pilot's store, so locality routes it there while a
// data-free unit falls back to least-loaded placement on the other.
func TestLocalityPrefersDataReplicaBytes(t *testing.T) {
	for _, policy := range []string{SchedulerLocality, SchedulerCoLocate} {
		policy := policy
		t.Run(policy, func(t *testing.T) {
			e := newEnv(t, 4, fastProfile())
			var near, far, dataBound *Pilot
			e.eng.Spawn("driver", func(p *sim.Proc) {
				pm := NewPilotManager(e.session)
				var err error
				far, err = pm.Submit(p, PilotDescription{
					Resource: "tm", Nodes: 2, Runtime: time.Hour,
				})
				if err != nil {
					t.Error(err)
					return
				}
				near, err = pm.Submit(p, PilotDescription{
					Resource: "tm", Nodes: 2, Runtime: time.Hour,
				})
				if err != nil {
					t.Error(err)
					return
				}
				dm := NewDataManager(e.session)
				for i, pl := range []*Pilot{far, near} {
					dp, err := dm.AddPilot(data.PilotDescription{
						Backend: data.BackendMem, Label: fmt.Sprintf("m%d", i),
						CapacityBytes: 1 << 30,
					})
					if err != nil {
						t.Error(err)
						return
					}
					if err := pl.AttachDataPilot(dp); err != nil {
						t.Error(err)
						return
					}
				}
				du, err := dm.Submit(p, data.UnitDescription{
					Name: "/d/hot", SizeBytes: 128 << 20, Affinity: "m1",
				})
				if err != nil {
					t.Error(err)
					return
				}
				um := newUM(t, e.session, WithScheduler(policy))
				um.AddPilot(far)
				um.AddPilot(near)
				far.WaitState(p, PilotActive)
				near.WaitState(p, PilotActive)
				units, err := um.Submit(p, []ComputeUnitDescription{
					{Inputs: []DataRef{{Unit: du}}},
				})
				if err != nil {
					t.Error(err)
					return
				}
				um.WaitAll(p, units)
				if units[0].State() != UnitDone {
					t.Errorf("unit finished %v: %v", units[0].State(), units[0].Err)
				}
				dataBound = units[0].Pilot
				far.Cancel()
				near.Cancel()
			})
			e.eng.Run()
			e.eng.Close()
			if dataBound != near {
				t.Fatalf("%s placed the data unit on %v, want the replica-holding pilot", policy, dataBound)
			}
		})
	}
}
