package core

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/hdfs"
	"repro/internal/hpc"
	"repro/internal/obs"
	"repro/internal/saga"
	"repro/internal/sim"
	"repro/internal/yarn"
)

// Pilot is a placeholder job managed by the PilotManager: once its agent
// is active, it executes Compute-Units on the allocation through the
// execution backend its description's Mode selected.
type Pilot struct {
	ID      string
	Desc    PilotDescription
	session *Session
	res     *Resource
	backend Backend

	state PilotState
	watch sim.Notifier[PilotState]
	// Timestamps records when each state was entered, indexed by state;
	// the entry of a state the pilot never entered is zero. Timestamp
	// reports whether a state was reached. A re-entered PilotResizing
	// holds its latest entry; PilotActive keeps its first (exitResizing).
	Timestamps [numPilotStates]sim.Duration
	reached    uint16 // bit st set once st was entered

	// AgentStartTime is when the placeholder job's payload began on the
	// allocation — the reference point of the paper's "agent startup
	// time" (time between agent start and readiness for the first CU).
	AgentStartTime sim.Duration

	// HadoopSpawnTime is the Mode I cluster-spawn portion of the agent
	// startup (download + configure + start HDFS/YARN); zero for other
	// modes. Figure 6's RP-YARN runtimes include it.
	HadoopSpawnTime sim.Duration

	sagaJob *saga.Job
	agent   *agent

	// chunks are the extra allocations acquired by Resize, oldest
	// first; a chunk with no nodes yet is still in the batch queue.
	chunks []*chunk
	// resizing serializes Resize calls; resizeDone wakes the next one.
	resizing   bool
	resizeDone *sim.Event

	// queueName is the coordination-store queue the Unit-Manager feeds.
	queueName string

	// dataPilot is the attached Data-Pilot (AttachDataPilot): the store
	// this pilot's units read co-located replicas from, and the signal
	// the data-affinity unit schedulers place by.
	dataPilot *data.Pilot

	err error // failure cause (Err)
}

// State returns the pilot state.
func (pl *Pilot) State() PilotState { return pl.state }

// Resource returns the resource the pilot runs on.
func (pl *Pilot) Resource() *Resource { return pl.res }

// Backend returns the execution backend instance driving this pilot's
// agent.
func (pl *Pilot) Backend() Backend { return pl.backend }

// OnStateChange registers fn to run for every state the pilot actually
// enters from now on, in registration order, synchronously at the
// transition's virtual time. States skipped on failure paths are not
// reported. If the pilot has already left PilotNew, fn is additionally
// invoked once, immediately, with the current state, so a late
// subscriber cannot miss a final state.
func (pl *Pilot) OnStateChange(fn PilotCallback) {
	pl.watch.Subscribe(func(st PilotState) { fn(pl, st) })
	if pl.state != PilotNew {
		fn(pl, pl.state)
	}
}

// WaitState blocks p until the pilot reaches the given state (or a final
// state, to avoid waiting forever on a failed pilot). It reports whether
// the pilot actually passed through the awaited state.
func (pl *Pilot) WaitState(p *sim.Proc, st PilotState) bool {
	// Final states are the largest values, so "st or final" is the
	// threshold min(st, PilotDone) — an indexed wait, never a scan.
	pl.watch.AwaitMin(p, pl.state, min(st, PilotDone))
	_, reached := pl.Timestamp(st)
	return reached
}

// Timestamp reports when the pilot entered st, and whether it ever did:
// states skipped on a failure path report false.
func (pl *Pilot) Timestamp(st PilotState) (sim.Duration, bool) {
	if uint(st) >= numPilotStates || pl.reached&(1<<st) == 0 {
		return 0, false
	}
	return pl.Timestamps[st], true
}

// stamp records entering st now.
func (pl *Pilot) stamp(st PilotState) {
	pl.Timestamps[st] = pl.session.eng.Now()
	pl.reached |= 1 << st
}

// Wait blocks until the pilot reaches a final state.
func (pl *Pilot) Wait(p *sim.Proc) PilotState {
	pl.watch.AwaitMin(p, pl.state, PilotDone)
	return pl.state
}

// AgentStartup returns the paper's Figure 5 metric: time from agent start
// to readiness for the first Compute-Unit. Valid once PilotActive.
func (pl *Pilot) AgentStartup() sim.Duration {
	return pl.Timestamps[PilotActive] - pl.AgentStartTime
}

// QueueWait returns the time the placeholder job spent in the batch
// queue.
func (pl *Pilot) QueueWait() sim.Duration {
	if pl.sagaJob == nil {
		return 0
	}
	return pl.sagaJob.QueueWait()
}

// advance moves the pilot into st, recording the timestamp, firing
// callbacks and waking waiters. States may be skipped on failure paths;
// skipped states fire no callbacks, and waiters parked on them are woken
// by the final state (observing via Timestamp that the awaited state
// never actually occurred).
func (pl *Pilot) advance(st PilotState) {
	if pl.state.Final() || st <= pl.state {
		return
	}
	pl.state = st
	pl.stamp(st)
	pl.recordState(st)
	pl.watch.Entered(st)
}

// recordState emits the pilot's state transition (with its current node
// capacity) to the session's flight recorder, when one is attached.
func (pl *Pilot) recordState(st PilotState) {
	if r := pl.session.rec; r != nil {
		r.Record(obs.Event{Kind: obs.KindPilotState, Pilot: pl.ID,
			State: st.String(), Nodes: pl.Capacity()})
	}
}

// enterResizing moves an Active pilot into the transient Resizing state
// for the duration of a Resize. Units keep flowing on the current
// capacity throughout.
func (pl *Pilot) enterResizing() {
	if pl.state != PilotActive {
		return
	}
	pl.state = PilotResizing
	pl.stamp(PilotResizing)
	pl.recordState(PilotResizing)
	pl.watch.Entered(PilotResizing)
}

// exitResizing returns the pilot to Active once the resize completes.
// PilotActive is re-announced to subscribers — that transition is how
// the Unit-Manager's bind loop learns about new capacity without
// waiting for the next unit event. The original PilotActive timestamp
// is preserved so AgentStartup stays meaningful. No-op when the pilot
// reached a final state mid-resize.
func (pl *Pilot) exitResizing() {
	if pl.state != PilotResizing {
		return
	}
	pl.state = PilotActive
	pl.recordState(PilotActive)
	pl.watch.Entered(PilotActive)
}

// Err returns the cause recorded when the pilot failed — an error
// wrapping ErrBackendBootstrap when its agent could not bring the
// backend up — and nil for pilots that did not fail that way.
func (pl *Pilot) Err() error { return pl.err }

// fail records err as the pilot's failure cause and moves it to
// PilotFailed; a pilot already in a final state keeps its state and
// cause.
func (pl *Pilot) fail(err error) {
	if pl.state.Final() {
		return
	}
	pl.err = err
	pl.advance(PilotFailed)
}

// Cancel terminates the pilot: the placeholder job is cancelled and the
// agent (with any Hadoop/Spark cluster it spawned) shuts down.
func (pl *Pilot) Cancel() {
	if pl.state.Final() {
		return
	}
	if pl.sagaJob != nil {
		pl.sagaJob.Cancel()
	}
	pl.releaseChunks()
	pl.advance(PilotCanceled)
}

// YARNMetrics exposes the connected YARN cluster's metrics, or nil when
// the pilot's backend does not run on YARN (used by tests and the repro
// harness).
func (pl *Pilot) YARNMetrics() *yarn.ClusterMetrics {
	if pl.agent == nil {
		return nil
	}
	prov, ok := pl.backend.(YARNMetricsProvider)
	if !ok {
		return nil
	}
	return prov.YARNMetrics()
}

// HDFS returns the HDFS filesystem the pilot's units see: the one its
// backend runs on (a Mode I pilot's spawned cluster), or the resource's
// dedicated filesystem for ConnectDedicated pilots before their backend
// is bootstrapped. Nil when the pilot has no HDFS (plain HPC, Spark).
// An HDFS-backed data pilot is provisioned over it; the unit schedulers
// do not read it, they place by the replica bytes on the attached data
// pilot (PilotView.InputBytes).
func (pl *Pilot) HDFS() *hdfs.FileSystem {
	if prov, ok := pl.backend.(HDFSProvider); ok {
		if fs := prov.HDFS(); fs != nil {
			return fs
		}
	}
	if pl.Desc.ConnectDedicated && pl.res != nil {
		return pl.res.DedicatedHDFS
	}
	return nil
}

// AttachDataPilot binds a Data-Pilot to this compute pilot: its store is
// where the pilot's units find co-located input replicas, and the
// "locality"/"co-locate" unit schedulers route data-heavy units to the
// pilot whose attached store holds the most input bytes. Typically the
// data pilot is provisioned over storage the compute pilot brought up —
// its Mode I HDFS() once PilotActive, or an in-memory tier sized to the
// allocation.
func (pl *Pilot) AttachDataPilot(dp *data.Pilot) error {
	if dp == nil {
		return fmt.Errorf("core: pilot %s: nil data pilot", pl.ID)
	}
	if pl.dataPilot != nil && pl.dataPilot != dp {
		return fmt.Errorf("core: pilot %s already has data pilot %s attached", pl.ID, pl.dataPilot.ID)
	}
	pl.dataPilot = dp
	return nil
}

// DataPilot returns the attached Data-Pilot, or nil.
func (pl *Pilot) DataPilot() *data.Pilot { return pl.dataPilot }

// PilotManager submits and tracks pilots (paper Figure 3, steps P.1–P.7).
type PilotManager struct {
	session *Session
}

// NewPilotManager creates a pilot manager on the session.
func NewPilotManager(s *Session) *PilotManager {
	return &PilotManager{session: s}
}

// Session returns the owning session.
func (pm *PilotManager) Session() *Session { return pm.session }

// Submit launches a pilot: it resolves and validates the description's
// execution backend, builds the agent payload, submits the placeholder
// job through SAGA, and returns immediately with the pilot in
// PilotLaunching. Use WaitState(PilotActive) to block until the agent is
// ready.
func (pm *PilotManager) Submit(p *sim.Proc, desc PilotDescription) (*Pilot, error) {
	desc = desc.withDefaults()
	if err := desc.Validate(); err != nil {
		return nil, err
	}
	res, ok := pm.session.Resource(desc.Resource)
	if !ok {
		return nil, fmt.Errorf("core: %w %q", ErrUnknownResource, desc.Resource)
	}
	backend, err := newBackend(desc.Mode)
	if err != nil {
		return nil, err
	}
	if err := backend.Validate(desc, res); err != nil {
		return nil, err
	}
	pm.session.nextPilot++
	pl := &Pilot{
		ID:      fmt.Sprintf("pilot.%04d", pm.session.nextPilot),
		Desc:    desc,
		session: pm.session,
		res:     res,
		backend: backend,
	}
	pl.queueName = "units:" + pl.ID
	pl.stamp(PilotNew)
	pl.advance(PilotLaunching)

	js, err := saga.NewJobService(res.EffectiveURL(), res.Batch)
	if err != nil {
		pl.advance(PilotFailed)
		return nil, fmt.Errorf("core: pilot %s: %w", pl.ID, err)
	}
	job, err := js.Submit(p, saga.JobDescription{
		Executable: "radical-pilot-agent",
		NumNodes:   desc.Nodes,
		WallTime:   desc.Runtime,
		Queue:      desc.Queue,
		Payload: func(ap *sim.Proc, alloc *hpc.Allocation) {
			pl.runAgent(ap, alloc)
		},
	})
	if err != nil {
		pl.advance(PilotFailed)
		return nil, fmt.Errorf("core: pilot %s: %w", pl.ID, err)
	}
	pl.sagaJob = job
	pl.advance(PilotPending)
	// Track the job into final states in the background.
	pm.session.eng.SpawnDaemon("pmgr:watch:"+pl.ID, func(wp *sim.Proc) {
		st := job.Wait(wp)
		if pl.state.Final() {
			return
		}
		switch st {
		case saga.Done:
			pl.advance(PilotDone)
		case saga.Canceled:
			pl.advance(PilotCanceled)
		default:
			pl.advance(PilotFailed)
		}
	})
	return pl, nil
}
