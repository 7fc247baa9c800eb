package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/hpc"
	"repro/internal/sim"
)

// agent is the RADICAL-Pilot-Agent: it runs as the payload of the
// placeholder job and owns the generic agent machinery — bootstrap,
// components, the coordination-store pull loop, and the per-unit
// pipeline (paper Figure 3, right side). Everything runtime-specific
// (Local Resource Manager setup, launch methods, teardown of spawned
// clusters) lives behind the pilot's Backend.
type agent struct {
	pilot   *Pilot
	session *Session
	backend Backend
	bc      *BackendContext
	sched   AgentScheduler

	// execs holds the running unit executors in spawn order, so
	// teardown cancels units in a deterministic order.
	execs    sim.ProcSet
	draining bool
}

// errAgentShutdown is the interrupt reason for unit executors during
// teardown.
var errAgentShutdown = errors.New("core: agent shutting down")

// runAgent is the placeholder job's payload.
func (pl *Pilot) runAgent(p *sim.Proc, alloc *hpc.Allocation) {
	a := &agent{
		pilot:   pl,
		session: pl.session,
		backend: pl.backend,
	}
	a.bc = &BackendContext{
		Pilot:   pl,
		Session: pl.session,
		Alloc:   alloc,
		Machine: alloc.Machine(),
		Profile: pl.session.profile,
		RNG:     sim.SubRNG(pl.session.seed, "agent:"+pl.ID),
		agent:   a,
	}
	pl.agent = a
	pl.AgentStartTime = p.Now()
	pl.advance(PilotAgentStarting)
	defer a.teardown()
	intr := sim.OnInterrupt(func() {
		a.bootstrap(p)
		sched, err := a.backend.Bootstrap(p, a.bc)
		if err != nil {
			// The pilot fails; returning runs teardown, and the job
			// watcher leaves the final state alone.
			pl.fail(fmt.Errorf("core: pilot %s: %s %w: %w", pl.ID, a.backend.Name(), ErrBackendBootstrap, err))
			return
		}
		a.sched = sched
		a.startComponents(p)
		pl.advance(PilotActive)
		a.mainLoop(p)
	})
	_ = intr // cancellation and walltime both land here; teardown runs next
}

// bootstrap models the agent bootstrap chain: module loads, Python
// start, and the virtualenv verification on the shared filesystem whose
// thousands of small-file operations dominate startup on Lustre.
func (a *agent) bootstrap(p *sim.Proc) {
	p.Sleep(a.bc.Jitter(a.bc.Profile.AgentSetup))
	lustre := a.bc.Machine.Lustre
	for i := 0; i < a.bc.Profile.AgentVenvOps; i++ {
		lustre.Touch(p)
	}
}

// startComponents brings up the agent's internal components (scheduler,
// staging workers, heartbeat monitor).
func (a *agent) startComponents(p *sim.Proc) {
	p.Sleep(a.bc.Jitter(a.bc.Profile.AgentComponents))
	store := a.session.store
	pl := a.pilot
	a.session.eng.SpawnDaemon("agent:hb:"+pl.ID, func(hp *sim.Proc) {
		for !a.draining && !pl.State().Final() {
			store.Update(hp, "pilots", pl.ID, pl.State().String())
			hp.Sleep(10e9) // 10s heartbeat
		}
	})
}

// mainLoop pulls Compute-Units from the coordination store (paper steps
// U.3–U.4) and hands each to an executor process. It runs until the
// placeholder job is cancelled or hits its walltime.
func (a *agent) mainLoop(p *sim.Proc) {
	store := a.session.store
	for {
		item, ok := store.PopWait(p, a.pilot.queueName, a.bc.Profile.AgentPull)
		if !ok {
			continue
		}
		u := item.(*Unit)
		if u.Pilot != a.pilot || u.State().Final() {
			// Stale queue entry: the Unit-Manager rebound the unit to
			// another pilot (failover) or it already reached a final
			// state; executing it here would double-run it.
			continue
		}
		u.advance(UnitSchedulingAgent)
		a.execs.Add(a.session.eng.SpawnNamed((*execName)(u), func(up *sim.Proc) {
			if intr := sim.OnInterrupt(func() { a.unitPipeline(up, u) }); intr != nil {
				if errors.Is(reasonErr(intr.Reason), errAgentShutdown) {
					u.cancel()
				} else {
					u.fail(reasonErr(intr.Reason))
				}
			}
		}))
	}
}

// execName names a unit's executor process ("exec:<unit ID>") only when
// the name is read.
type execName Unit

func (n *execName) String() string { return "exec:" + n.ID }

func reasonErr(reason any) error {
	if err, ok := reason.(error); ok {
		return err
	}
	return fmt.Errorf("core: interrupted: %v", reason)
}

// unitPipeline drives one unit through scheduling, staging, execution
// and output staging (paper steps U.4–U.7).
func (a *agent) unitPipeline(p *sim.Proc, u *Unit) {
	// Input readiness is awaited before any cores are held: a consumer
	// whose input is still being produced parks here without a slot, so
	// it cannot starve the producer's own slot acquisition.
	if err := a.awaitInputs(p, u); err != nil {
		u.fail(err)
		return
	}
	sl, err := a.sched.Acquire(p, u)
	if err != nil {
		u.fail(err)
		return
	}
	defer a.sched.Release(sl)

	u.advance(UnitStagingInput)
	if err := a.stageInputs(p, u, sl); err != nil {
		u.fail(err)
		return
	}
	if in := u.Desc.InputStagingBytes; in > 0 {
		// Stage-In worker: shared filesystem into the agent sandbox.
		a.bc.Machine.Lustre.Read(p, in)
	}
	if err := a.backend.LaunchUnit(p, a.bc, u, sl); err != nil {
		u.fail(err)
		return
	}
	u.advance(UnitStagingOutput)
	if err := stageDeclaredOutputs(p, u); err != nil {
		u.fail(err)
		return
	}
	if out := u.Desc.OutputStagingBytes; out > 0 {
		a.bc.Machine.Lustre.Write(p, out)
	}
	u.advance(UnitDone)
}

// stageReader picks the node the unit's staging reads land on: the
// acquired slot's node when the launch method pins one, the allocation
// head otherwise (YARN/Spark place containers themselves, so the head
// node stands in for the stage-in worker).
func (a *agent) stageReader(sl *Slot) *cluster.Node {
	if sl != nil && sl.Node != nil {
		return sl.Node
	}
	return a.bc.Alloc.Head()
}

// awaitInputs blocks until every referenced input Data-Unit is readable
// (replicated and not removed), failing with data.ErrUnavailable as the
// cause for inputs whose staging failed or was canceled. It runs before
// the unit holds any slot.
func (a *agent) awaitInputs(p *sim.Proc, u *Unit) error {
	for _, ref := range u.Desc.Inputs {
		du := ref.Unit
		if du == nil {
			continue
		}
		if !du.WaitReady(p) {
			return fmt.Errorf("core: unit %s input %s: %w (%v)", u.ID, du.ID, data.ErrUnavailable, du.State())
		}
	}
	return nil
}

// stageInputs stages every Data-Unit the description references into
// reach of the unit, before it can run: a replica held by the pilot's
// attached data pilot is read locally; otherwise the first replica (in
// placement order) serves the bytes toward this allocation. Stage-in
// always completes before the unit reaches UnitExecuting. Readiness was
// established by awaitInputs; an input removed since then fails the
// serve and the unit with it.
func (a *agent) stageInputs(p *sim.Proc, u *Unit, sl *Slot) error {
	reader := a.stageReader(sl)
	local := a.pilot.DataPilot()
	for _, ref := range u.Desc.Inputs {
		du := ref.Unit
		if du == nil {
			continue
		}
		if !du.WaitReady(p) {
			return fmt.Errorf("core: unit %s input %s: %w (%v)", u.ID, du.ID, data.ErrUnavailable, du.State())
		}
		if du.ReplicaOn(local) {
			if err := local.Store().ServeTo(p, du.Name(), reader); err != nil {
				return fmt.Errorf("core: unit %s input %s: %w", u.ID, du.ID, err)
			}
			// A local read of a cached copy refreshes its LRU recency
			// (CacheReplica on an already-present object touches only).
			du.Manager().CacheReplica(p, du, local)
			continue
		}
		reps := du.Replicas()
		if len(reps) == 0 {
			return fmt.Errorf("core: unit %s input %s: %w: no replicas", u.ID, du.ID, data.ErrUnavailable)
		}
		if err := reps[0].Store().ServeTo(p, du.Name(), reader); err != nil {
			return fmt.Errorf("core: unit %s input %s: %w", u.ID, du.ID, err)
		}
		if local != nil {
			// The bytes just travelled here anyway: leave an opportunistic
			// cached replica on the attached store (capacity permitting),
			// so an iterative workload's next pass reads locally.
			du.Manager().CacheReplica(p, du, local)
		}
	}
	return nil
}

// stageDeclaredOutputs stages every declared output Data-Unit of a
// completing unit, before UnitDone: the referenced unit's manager
// places its replicas (a unit rebound after a pilot failure re-stages
// idempotently — Stage on a Replicated unit is a no-op). The agent runs
// it after the executable finishes; the result cache runs the same
// function to materialize a cache-served unit's outputs, so both
// completion paths leave identical data-layer state.
func stageDeclaredOutputs(p *sim.Proc, u *Unit) error {
	for _, ref := range u.Desc.Outputs {
		du := ref.Unit
		if du == nil {
			continue
		}
		if err := du.Manager().Stage(p, du); err != nil {
			return fmt.Errorf("core: unit %s output %s: %w", u.ID, du.ID, err)
		}
	}
	return nil
}

// teardown stops everything the agent started, then lets the backend
// stop whatever its Bootstrap spawned, mirroring the paper's LRM
// shutdown ("the LRM stops the Hadoop and YARN daemons and removes the
// associated data files").
func (a *agent) teardown() {
	a.draining = true
	a.execs.Interrupt(errAgentShutdown)
	// Grown allocation chunks die with the pilot: parked chunk payloads
	// return (the batch reclaims their nodes) and queued ones are
	// cancelled.
	a.pilot.releaseChunks()
	a.backend.Teardown(a.bc)
	if a.pilot.state == PilotActive {
		// The job payload returning normally (walltime drain) moves the
		// pilot to Done via the PilotManager watcher.
		a.session.eng.Tracef("agent %s teardown complete", a.pilot.ID)
	}
}
