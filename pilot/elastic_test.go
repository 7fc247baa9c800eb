package pilot_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/sim"
	"repro/internal/yarn"
	"repro/pilot"
)

// TestElasticBackendConformance runs the elasticity contract against
// every registered backend, including the toy one registered from this
// test package:
//
//   - elastic backends: a grow is visible in Capacity() and in actual
//     scheduler slots (more units run concurrently than the base
//     allocation could hold), and a shrink is drain-then-release — no
//     running unit is ever killed;
//   - non-elastic backends: Resize fails with ErrNotElastic and the
//     pilot keeps working;
//   - every backend: Resize after a final state fails with
//     ErrPilotFinal.
func TestElasticBackendConformance(t *testing.T) {
	registerToy(t)
	for _, mode := range pilot.Backends() {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			e := newTestEnv(t, 6)
			e.run(t, func(p *sim.Proc) {
				pm := pilot.NewPilotManager(e.session)
				pl, err := pm.Submit(p, pilot.PilotDescription{
					Resource: "tm", Nodes: 2, Runtime: 2 * time.Hour, Mode: pilot.PilotMode(mode),
				})
				if err != nil {
					t.Error(err)
					return
				}
				um := newUM(t, e.session, pilot.WithScheduler(pilot.SchedulerBackfill))
				if err := um.AddPilot(pl); err != nil {
					t.Error(err)
					return
				}
				if !pl.WaitState(p, pilot.PilotActive) {
					t.Errorf("pilot never active: %v", pl.State())
					return
				}
				if got := pl.Capacity(); got != 2 {
					t.Errorf("base capacity = %d, want 2", got)
				}

				err = pl.Resize(p, 2)
				if err != nil {
					if !errors.Is(err, pilot.ErrNotElastic) {
						t.Errorf("non-elastic resize error = %v, want ErrNotElastic", err)
					}
					if pl.State() != pilot.PilotActive {
						t.Errorf("failed resize disturbed the pilot: %v", pl.State())
					}
					// The pilot must keep working after the refusal.
					units, err := um.Submit(p, []pilot.ComputeUnitDescription{{
						Name: "sanity", Cores: 1,
					}})
					if err != nil {
						t.Error(err)
						return
					}
					um.WaitAll(p, units)
					if units[0].State() != pilot.UnitDone {
						t.Errorf("post-refusal unit %v (%v)", units[0].State(), units[0].Err)
					}
				} else {
					conformElastic(t, p, e, pl, um)
				}

				pl.Cancel()
				pl.Wait(p)
				if err := pl.Resize(p, 1); !errors.Is(err, pilot.ErrPilotFinal) {
					t.Errorf("resize after final = %v, want ErrPilotFinal", err)
				}
				if err := pl.Resize(p, -1); !errors.Is(err, pilot.ErrPilotFinal) {
					t.Errorf("shrink after final = %v, want ErrPilotFinal", err)
				}
			})
		})
	}
}

// conformElastic checks the grown pilot: capacity, usable slots, and
// drain-then-release shrink. Entered with one 2-node chunk grown on top
// of the 2-node base allocation (8-core nodes).
func conformElastic(t *testing.T, p *sim.Proc, e *testEnv, pl *pilot.Pilot, um *pilot.UnitManager) {
	t.Helper()
	if got := pl.Capacity(); got != 4 {
		t.Errorf("capacity after +2 = %d, want 4", got)
	}
	if m := pl.YARNMetrics(); m != nil && m.TotalVCores != 4*8 {
		t.Errorf("YARN vcores after grow = %d, want 32", m.TotalVCores)
	}

	// Grown slots are real: four 8-core units fill all four nodes
	// concurrently — the 2-node base allocation could run only two.
	running, peak := 0, 0
	wide := func(name string) pilot.ComputeUnitDescription {
		return pilot.ComputeUnitDescription{
			Name: name, Cores: 8,
			Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
				running++
				if running > peak {
					peak = running
				}
				ctx.Node.Compute(bp, 20)
				running--
			},
		}
	}
	var descs []pilot.ComputeUnitDescription
	for i := 0; i < 4; i++ {
		descs = append(descs, wide(fmt.Sprintf("wide-%d", i)))
	}
	units, err := um.Submit(p, descs)
	if err != nil {
		t.Error(err)
		return
	}
	um.WaitAll(p, units)
	for _, u := range units {
		if u.State() != pilot.UnitDone {
			t.Errorf("unit %s: %v (%v)", u.ID, u.State(), u.Err)
		}
	}
	if peak != 4 {
		t.Errorf("peak concurrency = %d, want 4 (grown slots unusable?)", peak)
	}

	// Shrink while units run: the drain must let every unit finish —
	// shrink never kills a running unit.
	running, peak = 0, 0
	descs = descs[:0]
	for i := 0; i < 4; i++ {
		descs = append(descs, wide(fmt.Sprintf("drain-%d", i)))
	}
	units, err = um.Submit(p, descs)
	if err != nil {
		t.Error(err)
		return
	}
	p.Sleep(2 * time.Second) // let the batch occupy the chunk nodes
	if err := pl.Resize(p, -2); err != nil {
		t.Errorf("shrink: %v", err)
		return
	}
	if got := pl.Capacity(); got != 2 {
		t.Errorf("capacity after -2 = %d, want 2", got)
	}
	um.WaitAll(p, units)
	for _, u := range units {
		if u.State() != pilot.UnitDone {
			t.Errorf("unit %s killed by shrink: %v (%v)", u.ID, u.State(), u.Err)
		}
	}

	// Shrinking below the base allocation is rejected, not applied.
	if err := pl.Resize(p, -1); err == nil {
		t.Error("shrink below base allocation accepted")
	}
	if got := pl.Capacity(); got != 2 {
		t.Errorf("capacity after rejected shrink = %d, want 2", got)
	}
}

// TestModeIIPilotNotElastic: a Mode II pilot connects to a dedicated
// cluster it does not manage, so even though the YARN backend is
// elastic, Resize must refuse with ErrNotElastic.
func TestModeIIPilotNotElastic(t *testing.T) {
	e := newTestEnv(t, 4)
	fs, err := hdfs.New(e.eng, hdfs.DefaultConfig(), e.machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	ycfg := yarn.DefaultConfig()
	ycfg.Fetcher = yarn.VolumeFetcher{Volume: e.machine.Lustre}
	rm, err := yarn.NewResourceManager(e.eng, ycfg, e.machine.Nodes)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh batch front-end for the dedicated resource; the "tm"
	// resource (and its scheduler) goes unused in this test.
	batch := hpc.NewBatch(e.machine, hpc.Config{
		SchedCycle: 10 * time.Second, Prolog: 2 * time.Second,
		MinQueueWait: time.Second, DefaultWallTime: 4 * time.Hour, Seed: 3,
	})
	if err := e.session.AddResource(&pilot.Resource{
		Name: "dedicated", URL: "slurm://dedicated", Machine: e.machine,
		Batch: batch, DedicatedYARN: rm, DedicatedHDFS: fs,
	}); err != nil {
		t.Fatal(err)
	}
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "dedicated", Nodes: 2, Runtime: time.Hour,
			Mode: pilot.ModeYARN, ConnectDedicated: true,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot never active: %v", pl.State())
			return
		}
		if err := pl.Resize(p, 1); !errors.Is(err, pilot.ErrNotElastic) {
			t.Errorf("Mode II resize = %v, want ErrNotElastic", err)
		}
		pl.Cancel()
	})
}

// TestResizeGrowKicksParkedBackfillUnits is the bind-loop regression
// test: a Resize that adds capacity must kick the Unit-Manager so
// parked backfill units bind immediately, without waiting for the next
// unit event (completion, new pilot, ...).
func TestResizeGrowKicksParkedBackfillUnits(t *testing.T) {
	e := newTestEnv(t, 3)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session, pilot.WithScheduler(pilot.SchedulerBackfill))
		um.AddPilot(pl)
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot never active: %v", pl.State())
			return
		}
		// Two node-filling units: the first saturates the single node,
		// the second must park in the manager (capacity-aware late
		// binding).
		long := func(name string) pilot.ComputeUnitDescription {
			return pilot.ComputeUnitDescription{
				Name: name, Cores: 8,
				Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
					ctx.Node.Compute(bp, 30)
				},
			}
		}
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{long("first"), long("second")})
		if err != nil {
			t.Error(err)
			return
		}
		p.Sleep(3 * time.Second)
		if st := units[1].State(); st != pilot.UnitSchedulingUM {
			t.Errorf("second unit not parked before resize: %v", st)
		}
		if err := pl.Resize(p, 1); err != nil {
			t.Errorf("resize: %v", err)
			return
		}
		// No unit event happens here: only the resize's completion kick
		// can bind the parked unit. Give the bind loop a moment well
		// below the first unit's remaining runtime.
		p.Sleep(5 * time.Second)
		if st := units[1].State(); st < pilot.UnitPendingAgent {
			t.Errorf("parked unit not bound after resize kick: %v", st)
		}
		if st := units[0].State(); st.Final() {
			t.Errorf("first unit already %v; kick test window too late", st)
		}
		um.WaitAll(p, units)
		for _, u := range units {
			if u.State() != pilot.UnitDone {
				t.Errorf("unit %s: %v (%v)", u.ID, u.State(), u.Err)
			}
		}
		// The overlap proves the parked unit ran on grown capacity
		// while the first still held the base node.
		if units[1].Timestamps[pilot.UnitExecuting] >= units[0].Timestamps[pilot.UnitDone] {
			t.Error("second unit waited for the first to finish; resize kick did not late-bind it")
		}
		pl.Cancel()
	})
}

// TestBackfillBindsDuringResize: a resizing pilot keeps serving units
// on its current capacity — the backfill policy must bind to a pilot in
// PMGR_ACTIVE_RESIZING rather than parking everything for the duration
// of the (potentially long) resize.
func TestBackfillBindsDuringResize(t *testing.T) {
	e := newTestEnv(t, 3)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: pilot.ModeHPC,
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session, pilot.WithScheduler(pilot.SchedulerBackfill))
		um.AddPilot(pl)
		if !pl.WaitState(p, pilot.PilotActive) {
			t.Errorf("pilot never active: %v", pl.State())
			return
		}
		// Start a grow on a separate process; its chunk job pays the
		// batch queue wait, holding the pilot in Resizing for seconds.
		var resizeEnd time.Duration
		resized := sim.NewEvent(e.eng)
		e.eng.Spawn("resizer", func(rp *sim.Proc) {
			if err := pl.Resize(rp, 1); err != nil {
				t.Errorf("resize: %v", err)
			}
			resizeEnd = rp.Now()
			resized.Trigger()
		})
		p.Sleep(500 * time.Millisecond)
		if st := pl.State(); st != pilot.PilotResizing {
			t.Errorf("pilot not resizing when units arrive: %v", st)
		}
		units, err := um.Submit(p, []pilot.ComputeUnitDescription{{
			Name: "mid-resize", Cores: 2,
			Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
				ctx.Node.Compute(bp, 1)
			},
		}})
		if err != nil {
			t.Error(err)
			return
		}
		um.WaitAll(p, units)
		if units[0].State() != pilot.UnitDone {
			t.Errorf("unit %v (%v)", units[0].State(), units[0].Err)
		}
		p.Wait(resized)
		if resizeEnd == 0 {
			t.Error("resize never completed")
		}
		if bound := units[0].Timestamps[pilot.UnitPendingAgent]; bound >= resizeEnd {
			t.Errorf("unit bound at %v, only after the resize finished at %v", bound, resizeEnd)
		}
		pl.Cancel()
	})
}

// ladderPolicy is a custom toy autoscale policy written against the
// public API: grow one node whenever anything waits, release one once
// idle.
type ladderPolicy struct{}

func (ladderPolicy) Name() string { return "toy-ladder" }

func (ladderPolicy) Decide(s *pilot.AutoscaleSnapshot) int {
	switch {
	case s.WaitingUnits > 0:
		return 1
	case s.RunningUnits == 0 && s.Nodes > s.MinNodes:
		return -1
	}
	return 0
}

// TestAutoscalePolicyConformance drives every built-in autoscale
// policy, plus the toy ladder above, through a backlogged workload and
// checks the common contract: the autoscaler reports the policy it was
// given, every unit completes, every applied resize stays within the
// configured bounds, and the pilot survives to the end.
func TestAutoscalePolicyConformance(t *testing.T) {
	for _, policy := range []pilot.AutoscalePolicy{
		&pilot.QueueDepthPolicy{},
		&pilot.UtilizationPolicy{},
		&pilot.DeadlinePolicy{},
		&pilot.DataAwarePolicy{},
		ladderPolicy{},
	} {
		t.Run(policy.Name(), func(t *testing.T) {
			e := newTestEnv(t, 4)
			e.run(t, func(p *sim.Proc) {
				pm := pilot.NewPilotManager(e.session)
				pl, err := pm.Submit(p, pilot.PilotDescription{
					Resource: "tm", Nodes: 1, Runtime: 2 * time.Hour, Mode: pilot.ModeHPC,
				})
				if err != nil {
					t.Error(err)
					return
				}
				um := newUM(t, e.session, pilot.WithScheduler(pilot.SchedulerBackfill))
				um.AddPilot(pl)
				as, err := pilot.NewAutoscaler(um, pl,
					pilot.WithAutoscalePolicy(policy),
					pilot.WithAutoscaleBounds(1, 3),
					pilot.WithAutoscaleInterval(2*time.Second),
				)
				if err != nil {
					t.Error(err)
					return
				}
				if got := as.Policy(); got != policy.Name() {
					t.Errorf("Policy() = %q, want %q", got, policy.Name())
				}
				if !pl.WaitState(p, pilot.PilotActive) {
					t.Errorf("pilot never active: %v", pl.State())
					return
				}
				var descs []pilot.ComputeUnitDescription
				for i := 0; i < 16; i++ {
					descs = append(descs, pilot.ComputeUnitDescription{
						Name: fmt.Sprintf("u-%02d", i), Cores: 2,
						Body: func(bp *sim.Proc, ctx *pilot.UnitContext) {
							ctx.Node.Compute(bp, 15)
						},
					})
				}
				units, err := um.Submit(p, descs)
				if err != nil {
					t.Error(err)
					return
				}
				um.WaitAll(p, units)
				for _, u := range units {
					if u.State() != pilot.UnitDone {
						t.Errorf("unit %s: %v (%v)", u.ID, u.State(), u.Err)
					}
				}
				for _, r := range as.History() {
					if r.From < 1 || r.From > 3 || r.To < 1 || r.To > 3 {
						t.Errorf("resize %d->%d escaped bounds [1, 3]", r.From, r.To)
					}
				}
				if pl.State().Final() {
					t.Errorf("pilot died during autoscaling: %v", pl.State())
				}
				as.Stop()
				pl.Cancel()
			})
		})
	}
}

// TestAutoscalerDefaultPolicy: without WithAutoscalePolicy the
// autoscaler decides with the zero QueueDepthPolicy.
func TestAutoscalerDefaultPolicy(t *testing.T) {
	e := newTestEnv(t, 2)
	e.run(t, func(p *sim.Proc) {
		pm := pilot.NewPilotManager(e.session)
		pl, err := pm.Submit(p, pilot.PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour,
		})
		if err != nil {
			t.Error(err)
			return
		}
		um := newUM(t, e.session)
		um.AddPilot(pl)
		as, err := pilot.NewAutoscaler(um, pl)
		if err != nil {
			t.Error(err)
			return
		}
		if got := as.Policy(); got != pilot.AutoscaleQueueDepth {
			t.Errorf("default Policy() = %q, want %q", got, pilot.AutoscaleQueueDepth)
		}
		as.Stop()
		pl.Cancel()
	})
}
