package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/sim"
)

// TestClusterViewCountsAndDataBytes drives a two-pilot setup with an
// attached in-memory store and checks the fabric's numbers: per-pilot
// capacity, the waiting/running split, the store occupancy, and the
// pending-input-byte attribution behind parked units.
func TestClusterViewCountsAndDataBytes(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	e.eng.Spawn("driver", func(p *sim.Proc) {
		plA := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		plB := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(plA)
		um.AddPilot(plB)

		dm := NewDataManager(e.session)
		dp, err := dm.AddPilot(data.PilotDescription{
			Backend: data.BackendMem, Label: "hot", CapacityBytes: 1 << 30,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := plA.AttachDataPilot(dp); err != nil {
			t.Error(err)
			return
		}
		du, err := dm.Submit(p, data.UnitDescription{Name: "/d/hot", SizeBytes: 64 << 20})
		if err != nil {
			t.Error(err)
			return
		}

		// Units submitted before any pilot is Active park in the manager:
		// all waiting, none running, their input bytes attributed to the
		// pilot whose attached store holds the replica.
		units, err := um.Submit(p, []ComputeUnitDescription{
			{Cores: 2, Inputs: []DataRef{{Unit: du}},
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(30 * time.Second) }},
			{Cores: 1,
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(30 * time.Second) }},
		})
		if err != nil {
			t.Error(err)
			return
		}
		v := um.ClusterView()
		if v.WaitingUnits != 2 || v.WaitingCores != 3 || v.RunningUnits != 0 {
			t.Errorf("parked view: waiting %d/%d cores, running %d; want 2/3, 0",
				v.WaitingUnits, v.WaitingCores, v.RunningUnits)
		}
		pvA, pvB := v.For(plA), v.For(plB)
		if pvA == nil || pvB == nil {
			t.Error("registered pilots missing from the view")
			return
		}
		if pvA.PendingInputBytes != 64<<20 {
			t.Errorf("pilot A pending input bytes = %d, want %d", pvA.PendingInputBytes, int64(64<<20))
		}
		if pvB.PendingInputBytes != 0 {
			t.Errorf("pilot B pending input bytes = %d, want 0", pvB.PendingInputBytes)
		}
		if pvA.DataUsedBytes != 64<<20 || pvA.DataCapacityBytes != 1<<30 {
			t.Errorf("pilot A data store = %d/%d bytes, want %d/%d",
				pvA.DataUsedBytes, pvA.DataCapacityBytes, int64(64<<20), int64(1<<30))
		}
		if free := pvA.DataFreeBytes(); free != 1<<30-64<<20 {
			t.Errorf("pilot A data free bytes = %d, want %d", free, int64(1<<30-64<<20))
		}
		if pvB.DataPilot != nil || pvB.DataFreeBytes() != 0 {
			t.Error("pilot B reports an attached data store it does not have")
		}
		if hot := v.HottestDataPilot(); hot != pvA {
			t.Errorf("HottestDataPilot = %v, want pilot A's view", hot)
		}

		// Once the pilots are up and the units execute, the split flips
		// and per-pilot capacity is visible.
		plA.WaitState(p, PilotActive)
		plB.WaitState(p, PilotActive)
		for _, u := range units {
			u.watch.AwaitMin(p, u.State(), UnitExecuting)
		}
		v = um.ClusterView()
		if v.RunningUnits != 2 || v.RunningCores != 3 || v.WaitingUnits != 0 {
			t.Errorf("running view: running %d/%d cores, waiting %d; want 2/3, 0",
				v.RunningUnits, v.RunningCores, v.WaitingUnits)
		}
		if tc := v.For(plA).TotalCores; tc != 2*8 {
			t.Errorf("pilot A total cores = %d, want 16", tc)
		}
		if fc := v.For(plA).FreeCores() + v.For(plB).FreeCores(); fc != 2*16-3 {
			t.Errorf("free cores across pilots = %d, want %d", fc, 2*16-3)
		}
		um.WaitAll(p, units)
		plA.Cancel()
		plB.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
}

// TestClusterViewPersistent pins the one-view-per-manager contract: the
// same *ClusterView and the same *PilotView pointers come back across
// reads, scheduling events and unit transitions, updated in place; and
// demand() agrees with the view.
func TestClusterViewPersistent(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
		um.AddPilot(pl)
		v := um.ClusterView()
		pv := v.For(pl)
		if pv == nil || len(v.Pilots) != 1 || v.Pilots[0] != pv {
			t.Errorf("view after AddPilot: %d pilots, For = %v", len(v.Pilots), pv)
			return
		}
		units, err := um.Submit(p, []ComputeUnitDescription{{
			Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Minute) },
		}})
		if err != nil {
			t.Error(err)
			return
		}
		same := func(when string, got *ClusterView) {
			t.Helper()
			if got != v || got.For(pl) != pv || got.Pilots[0] != pv {
				t.Errorf("%s: manager handed out a different view", when)
			}
		}
		same("after Submit", um.ClusterView())
		same("sumTotals", um.sumTotals())
		// A state change (the unit starting to execute) must show up in
		// the same view.
		pl.WaitState(p, PilotActive)
		units[0].watch.AwaitMin(p, units[0].State(), UnitExecuting)
		same("after the unit started", um.ClusterView())
		if v.RunningUnits != 1 || v.WaitingUnits != 0 || pv.RunningUnits != 1 {
			t.Errorf("refreshed view: running %d (pilot %d), waiting %d; want 1 (1), 0",
				v.RunningUnits, pv.RunningUnits, v.WaitingUnits)
		}
		wu, wc, ru, rc := um.demand()
		if wu != v.WaitingUnits || wc != v.WaitingCores || ru != v.RunningUnits || rc != v.RunningCores {
			t.Errorf("demand() = %d/%d %d/%d, view says %d/%d %d/%d",
				wu, wc, ru, rc, v.WaitingUnits, v.WaitingCores, v.RunningUnits, v.RunningCores)
		}
		um.WaitAll(p, units)
		same("after the unit finished", um.ClusterView())
		if units[0].State() != UnitDone || v.RunningUnits != 0 || pv.RunningUnits != 0 {
			t.Errorf("after completion: unit %v, running %d (pilot %d); want DONE, 0 (0)",
				units[0].State(), v.RunningUnits, pv.RunningUnits)
		}
		pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
}

// runYARNHistory brings up two Mode I YARN pilots, the first with an
// attached in-memory data pilot, and runs n one-core units to
// completion on them under backfill, so each pilot's ResourceManager
// carries a history of finished applications. It returns the idle
// manager and its pilots (callers cancel the pilots when done), or a
// nil manager after reporting a failure.
func runYARNHistory(t testing.TB, p *sim.Proc, e *env, n int) (*UnitManager, []*Pilot) {
	pm := NewPilotManager(e.session)
	var pls []*Pilot
	for i := 0; i < 2; i++ {
		pl, err := pm.Submit(p, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: 100 * time.Hour, Mode: ModeYARN,
		})
		if err != nil {
			t.Error(err)
			return nil, nil
		}
		pls = append(pls, pl)
	}
	dp, err := NewDataManager(e.session).AddPilot(data.PilotDescription{
		Backend: data.BackendMem, Label: "hot", CapacityBytes: 1 << 30,
	})
	if err == nil {
		err = pls[0].AttachDataPilot(dp)
	}
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
	for _, pl := range pls {
		um.AddPilot(pl)
	}
	descs := make([]ComputeUnitDescription, n)
	for i := range descs {
		descs[i] = ComputeUnitDescription{Cores: 1,
			Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Second) }}
	}
	units, err := um.Submit(p, descs)
	if err != nil {
		t.Error(err)
		return nil, nil
	}
	um.WaitAll(p, units)
	for _, u := range units {
		if u.State() != UnitDone {
			t.Errorf("unit %s: %v (%v)", u.ID, u.State(), u.Err)
			return nil, nil
		}
	}
	return um, pls
}

// TestBindProbesAllocateNothing gates the bind path's per-offer work on
// a deterministic counter rather than wall time. Once YARN pilots have
// run applications to completion, passCands.ensure and the
// refreshProbes inside it allocate nothing per call, and read each YARN
// pilot's capacity as its live NodeManager vcores. With units in flight
// on HPC pilots, neither the candidate refresh nor a ClusterView read
// allocates after a scheduling event either.
func TestBindProbesAllocateNothing(t *testing.T) {
	t.Run("yarn-history", func(t *testing.T) {
		e := newEnv(t, 4, fastProfile())
		e.eng.Spawn("workload", func(p *sim.Proc) {
			um, pls := runYARNHistory(t, p, e, 24)
			if um == nil {
				return
			}
			um.cands.ensure() // settle the candidate set after the last events
			v := um.view
			for _, pl := range pls {
				if got, want := v.For(pl).TotalCores, pl.YARNMetrics().TotalVCores; got != want || got != 16 {
					t.Errorf("pilot %s: probed %d cores, YARN metrics say %d, want 16", pl.ID, got, want)
				}
			}
			if a := testing.AllocsPerRun(100, um.cands.ensure); a != 0 {
				t.Errorf("passCands.ensure allocates %v per call, want 0", a)
			}
			if a := testing.AllocsPerRun(100, func() { um.refreshProbes(v) }); a != 0 {
				t.Errorf("refreshProbes allocates %v per call, want 0", a)
			}
			for _, pl := range pls {
				pl.Cancel()
			}
		})
		e.eng.Run()
		e.eng.Close()
	})
	t.Run("hpc-inflight", func(t *testing.T) {
		// Sixteen HPC pilots under backfill, units executing on every
		// one, and a scheduling event before each read: the manager's one
		// view must be refreshed in place. Rebuilding it per generation
		// (a fresh ClusterView, its byPilot map, one PilotView per pilot
		// and the growing Pilots slice) cost 26 allocations per call here,
		// for both reads.
		const npilots = 16
		e := newEnv(t, npilots, fastProfile())
		e.eng.Spawn("workload", func(p *sim.Proc) {
			um := newUM(t, e.session, WithScheduler(SchedulerBackfill))
			pls := make([]*Pilot, npilots)
			for i := range pls {
				pls[i] = submitPilot(t, p, e, PilotDescription{
					Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
				})
				um.AddPilot(pls[i])
			}
			descs := make([]ComputeUnitDescription, 2*npilots)
			for i := range descs {
				descs[i] = ComputeUnitDescription{Cores: 1,
					Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Hour) }}
			}
			units, err := um.Submit(p, descs)
			if err != nil {
				t.Error(err)
				return
			}
			for _, u := range units {
				u.watch.AwaitMin(p, u.State(), UnitExecuting)
			}
			if v := um.ClusterView(); v.RunningUnits != len(units) || len(v.Pilots) != npilots {
				t.Errorf("view: %d running on %d pilots, want %d on %d",
					v.RunningUnits, len(v.Pilots), len(units), npilots)
			}
			if a := testing.AllocsPerRun(100, func() { um.bumpGen(); um.cands.ensure() }); a != 0 {
				t.Errorf("passCands.ensure after a scheduling event allocates %v per call, want 0", a)
			}
			if a := testing.AllocsPerRun(100, func() { um.bumpGen(); um.ClusterView() }); a != 0 {
				t.Errorf("ClusterView after a scheduling event allocates %v per call, want 0", a)
			}
			for _, pl := range pls {
				pl.Cancel()
			}
		})
		e.eng.Run()
		e.eng.Close()
	})
}

// BenchmarkClusterView guards the snapshot-refresh cost on the bind hot
// path: every offer builds candidates from the manager's ClusterView, so
// summing its pilot rows plus the live-probe refresh must stay cheap and
// allocation-free as the load grows. (Under TestMain every read also
// runs the full-walk auditView, so the unit-count cases time that walk
// too.) The yarn case probes two
// Mode I YARN pilots whose ResourceManagers have finished thousands of
// applications: its cost must not grow with that history.
func BenchmarkClusterView(b *testing.B) {
	for _, inflight := range []int{16, 256} {
		b.Run(fmt.Sprintf("%dunits", inflight), func(b *testing.B) {
			eng := sim.NewEngine()
			defer eng.Close()
			s := NewSession(eng, fastProfile(), 1)
			um, err := NewUnitManager(s)
			if err != nil {
				b.Fatal(err)
			}
			// Synthetic in-flight load: pilots and bound units wired
			// directly through the ledger the bind path uses, so the
			// benchmark isolates view assembly from agent execution.
			pilots := make([]*Pilot, 4)
			for i := range pilots {
				pilots[i] = &Pilot{ID: fmt.Sprintf("bench.%d", i), session: s}
				um.trackPilot(pilots[i])
			}
			for i := 0; i < inflight; i++ {
				u := &Unit{ID: fmt.Sprintf("u.%d", i), um: um,
					Desc:  ComputeUnitDescription{Cores: 2}.withDefaults(),
					state: UnitPendingAgent}
				um.setAcct(u, acctBoundWaiting, um.view.For(pilots[i%len(pilots)]))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := um.ClusterView()
				if v.WaitingUnits != inflight || len(v.Pilots) != len(pilots) {
					b.Fatalf("view counted %d waiting units on %d pilots, want %d on %d",
						v.WaitingUnits, len(v.Pilots), inflight, len(pilots))
				}
			}
		})
	}
	b.Run("yarn-2000apps", func(b *testing.B) {
		e := newEnv(b, 4, fastProfile())
		e.eng.Spawn("workload", func(p *sim.Proc) {
			um, pls := runYARNHistory(b, p, e, 2000)
			if um == nil {
				return
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				um.bumpGen()
				if v := um.ClusterView(); v.For(pls[0]).TotalCores != 16 {
					b.Errorf("view probed %d cores, want 16", v.For(pls[0]).TotalCores)
					break
				}
			}
			b.StopTimer()
			for _, pl := range pls {
				pl.Cancel()
			}
		})
		e.eng.Run()
		e.eng.Close()
	})
}

// peekScheduler binds every unit to the first candidate and records, at
// each Pick, the in-pass demand that demand() and ClusterView() report,
// and counts offered rows that are not the manager's own view rows.
type peekScheduler struct {
	um           *UnitManager
	demand, view []int
	foreignRows  int
}

func (*peekScheduler) Name() string { return "peek" }

func (s *peekScheduler) Pick(_ *sim.Proc, _ *Unit, cands []*PilotView) (*Pilot, error) {
	wu, _, ru, _ := s.um.demand()
	s.demand = append(s.demand, wu+ru)
	v := s.um.ClusterView()
	s.view = append(s.view, v.WaitingUnits+v.RunningUnits)
	for _, pv := range cands {
		if pv != v.For(pv.Pilot) {
			s.foreignRows++
		}
	}
	return cands[0].Pilot, nil
}

// TestPassHidesBatchRemainder pins the batch-hiding emulation: while a
// pass offers its batch, the batch's unoffered remainder (and the unit
// being offered) is not counted in WaitingUnits, so a view read inside
// Pick sees only the units already bound. Experiments depend on this,
// because autoscalers read demand mid-pass: with the hiding removed,
// seed 42 moves `repro elastic` (queue-depth makespan 135.7 s → 128.5 s,
// deadline 138.4 s → 134.8 s) and `repro dataelastic` (data-aware
// makespan 99.5 s → 95.5 s, queue-depth 133.3 s → 129.3 s).
func TestPassHidesBatchRemainder(t *testing.T) {
	peek := &peekScheduler{}
	if err := RegisterUnitScheduler("peek", func() UnitScheduler { return peek }); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { unitSchedulers.Unregister("peek") })
	const n = 4
	e := newEnv(t, 2, fastProfile())
	e.eng.Spawn("driver", func(p *sim.Proc) {
		pl := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 1, Runtime: time.Hour, Mode: ModeHPC,
		})
		um := newUM(t, e.session, WithScheduler("peek"))
		peek.um = um
		um.AddPilot(pl)
		descs := make([]ComputeUnitDescription, n)
		for i := range descs {
			descs[i] = ComputeUnitDescription{Cores: 1,
				Body: func(bp *sim.Proc, ctx *UnitContext) { bp.Sleep(time.Minute) }}
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
	if len(peek.view) != n {
		t.Fatalf("policy saw %d offers, want %d", len(peek.view), n)
	}
	if peek.foreignRows != 0 {
		t.Errorf("%d offered candidates were not the manager's ClusterView rows", peek.foreignRows)
	}
	for i := range peek.view {
		if peek.demand[i] != i || peek.view[i] != i {
			t.Errorf("offer %d: demand() counts %d units, ClusterView %d; want %d (the bound ones only)",
				i, peek.demand[i], peek.view[i], i)
		}
	}
}
