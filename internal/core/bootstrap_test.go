package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

// brokenBootBackend is a backend whose Bootstrap always fails, after
// taking a little virtual time: the agent must fail the pilot instead
// of crashing the session.
type brokenBootBackend struct{ tornDown bool }

var errNoRuntime = errors.New("runtime image missing")

func (b *brokenBootBackend) Name() string { return "broken-boot" }

func (b *brokenBootBackend) Validate(PilotDescription, *Resource) error { return nil }

func (b *brokenBootBackend) Bootstrap(p *sim.Proc, _ *BackendContext) (AgentScheduler, error) {
	p.Sleep(time.Second)
	return nil, errNoRuntime
}

func (b *brokenBootBackend) LaunchUnit(*sim.Proc, *BackendContext, *Unit, *Slot) error {
	return errors.New("broken-boot: never bootstrapped")
}

func (b *brokenBootBackend) Teardown(*BackendContext) { b.tornDown = true }

// registerBrokenBoot registers the broken-boot backend for the test's
// duration (other tests iterate every registered backend) and returns
// a pointer to the instance the latest Submit created.
func registerBrokenBoot(t *testing.T) **brokenBootBackend {
	t.Helper()
	last := new(*brokenBootBackend)
	err := RegisterBackend("broken-boot", func() Backend {
		*last = &brokenBootBackend{}
		return *last
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backends.Unregister("broken-boot") })
	return last
}

// TestBackendBootstrapErrorFailsPilot submits a broken-boot pilot on a
// one-node machine, then an HPC pilot that queues behind it. The broken
// pilot must reach PilotFailed with its cause recorded, run teardown and
// free its node; units waiting for it — parked under backfill, queued
// for its agent under round-robin — must fail over to the HPC pilot.
// With no other pilot, the units fail with ErrNoLivePilot.
func TestBackendBootstrapErrorFailsPilot(t *testing.T) {
	last := registerBrokenBoot(t)
	checkFailed := func(t *testing.T, pl *Pilot) {
		t.Helper()
		if st := pl.State(); st != PilotFailed {
			t.Errorf("broken pilot state %v, want FAILED", st)
		}
		if err := pl.Err(); !errors.Is(err, ErrBackendBootstrap) || !errors.Is(err, errNoRuntime) {
			t.Errorf("broken pilot Err() = %v, want ErrBackendBootstrap wrapping the backend's error", err)
		}
		if !(*last).tornDown {
			t.Error("broken pilot's backend not torn down")
		}
	}
	for _, sched := range []string{SchedulerBackfill, SchedulerRoundRobin} {
		t.Run(sched+"-failover", func(t *testing.T) {
			e := newEnv(t, 1, fastProfile())
			e.eng.Spawn("driver", func(p *sim.Proc) {
				bad := submitPilot(t, p, e, PilotDescription{
					Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "broken-boot",
				})
				good := submitPilot(t, p, e, PilotDescription{
					Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
				})
				um := newUM(t, e.session, WithScheduler(sched))
				um.AddPilot(bad)
				um.AddPilot(good)
				descs := make([]ComputeUnitDescription, 4)
				for i := range descs {
					descs[i] = ComputeUnitDescription{
						Body: func(bp *sim.Proc, _ *UnitContext) { bp.Sleep(time.Second) },
					}
				}
				units, err := um.Submit(p, descs)
				if err != nil {
					t.Error(err)
					return
				}
				if sched == SchedulerRoundRobin && units[0].Pilot != bad {
					t.Errorf("round-robin bound the first unit to %v, want the broken pilot", units[0].Pilot)
				}
				bad.Wait(p)
				checkFailed(t, bad)
				if good.State().Final() {
					t.Errorf("queued HPC pilot already %v when the broken one failed", good.State())
				}
				um.WaitAll(p, units)
				for _, u := range units {
					if u.State() != UnitDone || u.Pilot != good {
						t.Errorf("unit %s: %v on %v (%v), want DONE on the HPC pilot", u.ID, u.State(), u.Pilot, u.Err)
					}
				}
				good.Cancel()
			})
			e.eng.Run()
			e.eng.Close()
		})
	}
	t.Run("no-other-pilot", func(t *testing.T) {
		e := newEnv(t, 1, fastProfile())
		e.eng.Spawn("driver", func(p *sim.Proc) {
			bad := submitPilot(t, p, e, PilotDescription{
				Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: "broken-boot",
			})
			um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
			um.AddPilot(bad)
			units, err := um.Submit(p, []ComputeUnitDescription{{}})
			if err != nil {
				t.Error(err)
				return
			}
			um.WaitAll(p, units)
			checkFailed(t, bad)
			if u := units[0]; u.State() != UnitFailed || !errors.Is(u.Err, ErrNoLivePilot) {
				t.Errorf("unit %v (%v), want FAILED with ErrNoLivePilot", u.State(), u.Err)
			}
		})
		e.eng.Run()
		e.eng.Close()
	})
}
