package core

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/data"
	"repro/internal/sim"
)

// declareOut declares a fresh output Data-Unit for a cache test.
func declareOut(t *testing.T, dm *data.Manager, name string, size int64) *data.Unit {
	t.Helper()
	du, err := dm.Declare(data.UnitDescription{Name: name, SizeBytes: size})
	if err != nil {
		t.Fatal(err)
	}
	return du
}

// TestUnitKeyPermutationStable: permuted-but-equal descriptions collide
// to the same key, and the excluded fields (Cores, MemoryMB, Launch,
// staging bytes) do not move it.
func TestUnitKeyPermutationStable(t *testing.T) {
	e := newEnv(t, 1, fastProfile())
	dm := NewDataManager(e.session)
	a := declareOut(t, dm, "/d/a", 1<<20)
	b := declareOut(t, dm, "/d/b", 2<<20)
	x := declareOut(t, dm, "/o/x", 4<<20)
	y := declareOut(t, dm, "/o/y", 8<<20)

	base := ComputeUnitDescription{
		Executable: "/bin/f", Arguments: []string{"-n", "3"},
		Inputs:  []DataRef{{Unit: a}, {Unit: b}},
		Outputs: []DataRef{{Unit: x}, {Unit: y}},
	}
	k1, err := UnitKey(base)
	if err != nil {
		t.Fatal(err)
	}

	permuted := base
	permuted.Inputs = []DataRef{{Unit: b}, {Unit: nil}, {Unit: a}}
	permuted.Outputs = []DataRef{{Unit: y}, {Unit: x}}
	permuted.Cores = 16
	permuted.MemoryMB = 1 << 14
	permuted.Launch = LaunchMPIExec
	permuted.InputStagingBytes = 1 << 30
	permuted.Priority = 99
	k2, err := UnitKey(permuted)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("permuted refs / excluded fields changed the key:\n%v\n%v", k1, k2)
	}
	// Pinned at the original digest code: content addresses must not move.
	if want := "47847ce7f9b173997efbce248960c6a521b09e203121184b1eb9ce320b3b59ac"; k1.String() != want {
		t.Errorf("key %s, want %s", k1, want)
	}

	changed := base
	changed.Arguments = []string{"-n", "4"}
	if k3, _ := UnitKey(changed); k3 == k1 {
		t.Error("different arguments produced the same key")
	}

	if _, err := UnitKey(ComputeUnitDescription{Executable: "/bin/f"}); !errors.Is(err, cache.ErrNoOutputs) || !errors.Is(err, cache.ErrUncacheable) {
		t.Errorf("no declared outputs: err = %v, want ErrNoOutputs wrapping ErrUncacheable", err)
	}
}

// cacheTestRig boots one pilot with an attached store and a
// result-cached unit manager, and counts real executions.
type cacheTestRig struct {
	e     *env
	dm    *data.Manager
	um    *UnitManager
	pl    *Pilot
	execs int
}

func startCacheRig(t *testing.T, p *sim.Proc, e *env, opts ...UnitManagerOption) *cacheTestRig {
	t.Helper()
	r := &cacheTestRig{e: e}
	r.pl = submitPilot(t, p, e, PilotDescription{
		Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
	})
	r.pl.WaitState(p, PilotActive)
	r.dm = NewDataManager(e.session)
	memDataPilot(t, r.dm, r.pl, "m0", 1<<30)
	r.um = newUM(t, e.session, append([]UnitManagerOption{WithResultCache(1 << 30)}, opts...)...)
	r.um.AddPilot(r.pl)
	return r
}

// desc builds a cacheable description whose Body counts executions.
func (r *cacheTestRig) desc(args []string, in, out []*data.Unit) ComputeUnitDescription {
	d := ComputeUnitDescription{Executable: "/bin/derive", Arguments: args}
	for _, du := range in {
		d.Inputs = append(d.Inputs, DataRef{Unit: du})
	}
	for _, du := range out {
		d.Outputs = append(d.Outputs, DataRef{Unit: du})
	}
	d.Body = func(bp *sim.Proc, ctx *UnitContext) {
		r.execs++
		bp.Sleep(5 * time.Second)
	}
	return d
}

// TestResultCacheHitServesRepeatSubmission: an identical resubmission
// after completion never executes — it is completed from the cache with
// its declared outputs readable — while an uncacheable unit (no
// outputs) passes the cache by entirely.
func TestResultCacheHitServesRepeatSubmission(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var repeat *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		r := startCacheRig(t, p, e)
		in, err := r.dm.Submit(p, data.UnitDescription{Name: "/d/src", SizeBytes: 16 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		out := declareOut(t, r.dm, "/o/res", 8<<20)

		first, err := r.um.Submit(p, []ComputeUnitDescription{r.desc(nil, []*data.Unit{in}, []*data.Unit{out})})
		if err != nil {
			t.Error(err)
			return
		}
		r.um.WaitAll(p, first)
		if st := first[0].State(); st != UnitDone {
			t.Errorf("leader ended %v (%v)", st, first[0].Err)
			return
		}
		if r.execs != 1 || out.State() != data.StateReplicated {
			t.Errorf("after leader: execs=%d out=%v", r.execs, out.State())
		}

		// The identical resubmission: same executable, args, inputs and
		// declared outputs — a hit, completed without executing.
		units, err := r.um.Submit(p, []ComputeUnitDescription{
			r.desc(nil, []*data.Unit{in}, []*data.Unit{out}),
			{Executable: "/bin/probe", Body: func(bp *sim.Proc, ctx *UnitContext) { r.execs++ }}, // uncacheable
		})
		if err != nil {
			t.Error(err)
			return
		}
		r.um.WaitAll(p, units)
		repeat = units[0]
		if r.execs != 2 {
			t.Errorf("execs = %d, want 2 (leader + uncacheable probe, never the hit)", r.execs)
		}
		cs := r.um.ClusterView().Cache
		if !cs.Enabled || cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
			t.Errorf("cache snapshot = %+v", cs)
		}
		if cs.UsedBytes != 8<<20 {
			t.Errorf("cached bytes = %d, want the declared output size", cs.UsedBytes)
		}
		r.pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if repeat == nil || repeat.State() != UnitDone {
		t.Fatalf("repeat submission did not complete: %+v", repeat)
	}
	if _, executed := repeat.Timestamp(UnitExecuting); executed {
		t.Error("cache-served unit entered UnitExecuting")
	}
	if repeat.TimeToCompletion() != 0 {
		// A hit completes synchronously inside Submit: scheduling and
		// completion land on the same virtual instant.
		t.Errorf("hit took %v, want instantaneous completion", repeat.TimeToCompletion())
	}
}

// TestResultCacheCoalescesConcurrentSubmissions: identical units
// submitted while the first still executes park in UnitPendingResult —
// invisible to the Waiting/Held demand counts — and all complete off
// the leader's single execution.
func TestResultCacheCoalescesConcurrentSubmissions(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var leader *Unit
	var waiters []*Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		r := startCacheRig(t, p, e)
		in, err := r.dm.Submit(p, data.UnitDescription{Name: "/d/src", SizeBytes: 16 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		out := declareOut(t, r.dm, "/o/res", 8<<20)
		d := r.desc(nil, []*data.Unit{in}, []*data.Unit{out})

		first, err := r.um.Submit(p, []ComputeUnitDescription{d})
		if err != nil {
			t.Error(err)
			return
		}
		leader = first[0]
		for leader.State() < UnitExecuting {
			p.Sleep(time.Second)
		}
		dup, err := r.um.Submit(p, []ComputeUnitDescription{d, d})
		if err != nil {
			t.Error(err)
			return
		}
		waiters = dup
		for _, w := range waiters {
			if st := w.State(); st != UnitPendingResult {
				t.Errorf("duplicate parked in %v, want UMGR_PENDING_RESULT", st)
			}
		}
		cv := r.um.ClusterView()
		if cv.Cache.Coalesced != 2 || cv.Cache.InFlight != 1 || cv.Cache.Waiting != 2 {
			t.Errorf("cache snapshot = %+v", cv.Cache)
		}
		// Parked waiters are not capacity demand: the only unit the
		// autoscaler-facing counts see is the executing leader.
		if cv.WaitingUnits != 0 || cv.HeldUnits != 0 || cv.RunningUnits != 1 {
			t.Errorf("demand counts waiting=%d held=%d running=%d, want 0/0/1",
				cv.WaitingUnits, cv.HeldUnits, cv.RunningUnits)
		}
		r.um.WaitAll(p, append(append([]*Unit{}, first...), dup...))
		if r.execs != 1 {
			t.Errorf("execs = %d, want 1 — waiters must ride the leader's execution", r.execs)
		}
		r.pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if leader == nil || leader.State() != UnitDone {
		t.Fatalf("leader ended %+v", leader)
	}
	for i, w := range waiters {
		if w.State() != UnitDone {
			t.Errorf("waiter %d ended %v (%v)", i, w.State(), w.Err)
		}
		if _, executed := w.Timestamp(UnitExecuting); executed {
			t.Errorf("waiter %d entered UnitExecuting", i)
		}
		if w.Timestamps[UnitDone] < leader.Timestamps[UnitDone] {
			t.Errorf("waiter %d completed before its leader", i)
		}
	}
}

// TestFailedLeaderReleasesWaiters: the leader's pilot is canceled
// mid-execution, so the leader dies with it — the coalesced waiters
// must re-execute independently on the surviving pilot, complete, and
// find no poisoned cache entry behind them.
func TestFailedLeaderReleasesWaiters(t *testing.T) {
	e := newEnv(t, 4, fastProfile())
	var leader, waiter *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		r := startCacheRig(t, p, e) // round-robin: the first unit binds pilot 1
		pl2 := submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		pl2.WaitState(p, PilotActive)
		memDataPilot(t, r.dm, pl2, "m1", 1<<30)
		r.um.AddPilot(pl2)

		in, err := r.dm.Submit(p, data.UnitDescription{Name: "/d/src", SizeBytes: 16 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		out := declareOut(t, r.dm, "/o/res", 8<<20)
		d := r.desc(nil, []*data.Unit{in}, []*data.Unit{out})

		first, err := r.um.Submit(p, []ComputeUnitDescription{d})
		if err != nil {
			t.Error(err)
			return
		}
		leader = first[0]
		for leader.State() < UnitExecuting {
			p.Sleep(time.Second)
		}
		dup, err := r.um.Submit(p, []ComputeUnitDescription{d})
		if err != nil {
			t.Error(err)
			return
		}
		waiter = dup[0]

		// Kill the leader's pilot mid-execution: the leader is canceled
		// with it, the flight aborts, the waiter re-executes on pl2.
		leader.Pilot.Cancel()
		r.um.WaitAll(p, dup)

		cs := r.um.ClusterView().Cache
		if cs.Aborts != 1 || cs.Entries != 0 || cs.Hits != 0 {
			t.Errorf("cache snapshot after aborted flight = %+v", cs)
		}
		if r.execs != 2 {
			t.Errorf("execs = %d, want 2 (leader's aborted run + waiter's own)", r.execs)
		}
		pl2.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if leader.State() != UnitCanceled {
		t.Fatalf("leader ended %v, want CANCELED with its pilot", leader.State())
	}
	if waiter.State() != UnitDone {
		t.Fatalf("waiter ended %v (%v), want DONE on the surviving pilot", waiter.State(), waiter.Err)
	}
	if _, executed := waiter.Timestamp(UnitExecuting); !executed {
		t.Error("released waiter never executed")
	}
	if waiter.Pilot == leader.Pilot {
		t.Error("waiter re-executed on the dead pilot")
	}
}

// TestLeaderStageOutFailureDoesNotPoison: a leader that executes but
// fails staging its output (the store cannot hold it) settles the
// flight with an abort — the waiter re-executes independently and fails
// on its own terms; nothing is cached, and a later identical submission
// leads again instead of hitting.
func TestLeaderStageOutFailureDoesNotPoison(t *testing.T) {
	e := newEnv(t, 2, fastProfile())
	var leader, waiter *Unit
	e.eng.Spawn("driver", func(p *sim.Proc) {
		r := &cacheTestRig{e: e}
		r.pl = submitPilot(t, p, e, PilotDescription{
			Resource: "tm", Nodes: 2, Runtime: time.Hour, Mode: ModeHPC,
		})
		r.pl.WaitState(p, PilotActive)
		r.dm = NewDataManager(e.session)
		// The only store holds 24 MB: the 16 MB input fits, the declared
		// 16 MB output can never be staged.
		memDataPilot(t, r.dm, r.pl, "small", 24<<20)
		r.um = newUM(t, e.session, WithResultCache(1<<30))
		r.um.AddPilot(r.pl)
		in, err := r.dm.Submit(p, data.UnitDescription{Name: "/d/src", SizeBytes: 16 << 20})
		if err != nil {
			t.Error(err)
			return
		}
		out := declareOut(t, r.dm, "/o/big", 16<<20)
		d := r.desc(nil, []*data.Unit{in}, []*data.Unit{out})

		first, err := r.um.Submit(p, []ComputeUnitDescription{d})
		if err != nil {
			t.Error(err)
			return
		}
		leader = first[0]
		for leader.State() < UnitExecuting {
			p.Sleep(time.Second)
		}
		dup, err := r.um.Submit(p, []ComputeUnitDescription{d})
		if err != nil {
			t.Error(err)
			return
		}
		waiter = dup[0]
		r.um.WaitAll(p, append(first, dup...))
		if r.execs != 2 {
			t.Errorf("execs = %d, want 2 — the waiter re-executes, it is not handed the failure", r.execs)
		}
		cs := r.um.ClusterView().Cache
		if cs.Aborts != 1 || cs.Entries != 0 {
			t.Errorf("cache snapshot = %+v, want one aborted flight and no entry", cs)
		}
		r.pl.Cancel()
	})
	e.eng.Run()
	e.eng.Close()
	if leader.State() != UnitFailed || !errors.Is(leader.Err, data.ErrNoPilots) && !errors.Is(leader.Err, data.ErrUnavailable) {
		t.Fatalf("leader ended %v (%v), want stage-out failure", leader.State(), leader.Err)
	}
	if waiter.State() != UnitFailed {
		t.Fatalf("waiter ended %v, want its own independent failure", waiter.State())
	}
	if _, executed := waiter.Timestamp(UnitExecuting); !executed {
		t.Error("released waiter never executed")
	}
}
