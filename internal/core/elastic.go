package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/hpc"
	"repro/internal/saga"
	"repro/internal/sim"
)

// ElasticBackend is the optional capability interface of backends whose
// pilots can change capacity at runtime — the paper's dynamic resource
// management: instead of tearing a cluster down and requeueing a bigger
// placeholder job, a running pilot acquires (or releases) extra
// allocation chunks and integrates them into its runtime (extra
// NodeManagers registering with the ResourceManager in YARN's case).
// Backends that do not implement it (Spark) make Pilot.Resize fail with
// ErrNotElastic.
type ElasticBackend interface {
	// Resizable reports whether this pilot's deployment supports
	// resizing: nil when it does, an error wrapping ErrNotElastic when
	// it does not (e.g. a Mode II pilot connected to a dedicated
	// cluster it does not manage). Called before any batch job is
	// submitted.
	Resizable(bc *BackendContext) error
	// Grow integrates freshly allocated nodes into the running
	// runtime. On return the new capacity must be visible to the agent
	// scheduler, so parked units can be granted slots on it.
	Grow(p *sim.Proc, bc *BackendContext, nodes []*cluster.Node) error
	// Shrink removes the given nodes from the runtime
	// drain-then-release: running units finish undisturbed; only then
	// are the nodes surrendered. Blocks p for the drain.
	Shrink(p *sim.Proc, bc *BackendContext, nodes []*cluster.Node) error
}

// chunk is one extra allocation acquired by a grow: a placeholder job
// holding nodes that extend the pilot beyond its base allocation. Its
// payload parks until the chunk is released (shrink or pilot teardown);
// nodes is nil while the job is still in the batch queue.
type chunk struct {
	job     *saga.Job
	nodes   []*cluster.Node
	release *sim.Event
}

// Capacity returns the pilot's current size in nodes: the base
// allocation plus every grown chunk. Before the first Resize it equals
// Desc.Nodes.
func (pl *Pilot) Capacity() int {
	n := pl.Desc.Nodes
	for _, ch := range pl.chunks {
		n += len(ch.nodes)
	}
	return n
}

// Resize changes the pilot's capacity by deltaNodes at runtime: positive
// grows (an extra allocation chunk is acquired through the batch system
// and integrated into the running backend), negative shrinks
// (previously grown chunks are drained — running units finish — and
// released back to the batch system). The base allocation can never be
// shrunk away.
//
// Resize blocks p for the full operation (queue wait and runtime
// integration on grow, drain on shrink) and serializes with concurrent
// Resize calls. While a resize is in flight the pilot reports the
// transient PilotResizing state and keeps executing units on its
// current capacity; completion re-announces PilotActive, which kicks
// every Unit-Manager the pilot is registered with.
//
// Failure surface: ErrPilotFinal when the pilot has already reached a
// final state, ErrNotElastic when the backend cannot resize (both
// matchable with errors.Is); shrinking below the base allocation or
// across partial chunks is rejected with a descriptive error.
func (pl *Pilot) Resize(p *sim.Proc, deltaNodes int) error {
	if deltaNodes == 0 {
		return nil
	}
	for pl.resizing {
		p.Wait(pl.resizeDone)
	}
	if pl.state.Final() {
		return fmt.Errorf("core: pilot %s: %w", pl.ID, ErrPilotFinal)
	}
	eb, ok := pl.backend.(ElasticBackend)
	if !ok {
		return fmt.Errorf("core: pilot %s: %w: backend %q implements no Grow/Shrink",
			pl.ID, ErrNotElastic, pl.backend.Name())
	}
	if pl.state != PilotActive {
		return fmt.Errorf("core: pilot %s is %s; resize requires an active pilot", pl.ID, pl.state)
	}
	if err := eb.Resizable(pl.agent.bc); err != nil {
		return fmt.Errorf("core: pilot %s: %w", pl.ID, err)
	}
	var take []*chunk
	if deltaNodes < 0 {
		// Validate the shrink before any state transition: an
		// infeasible request must not churn Resizing→Active (state
		// callbacks kick schedulers and autoscalers, and a zero-cost
		// failure would re-trigger them in place).
		var err error
		take, err = pl.shrinkChunks(-deltaNodes)
		if err != nil {
			return err
		}
	}
	pl.resizing = true
	pl.resizeDone = sim.NewEvent(pl.session.eng)
	defer func() {
		pl.resizing = false
		pl.resizeDone.Trigger()
	}()
	pl.enterResizing()
	var err error
	if deltaNodes > 0 {
		err = pl.grow(p, eb, deltaNodes)
	} else {
		err = pl.shrink(p, eb, take)
	}
	pl.exitResizing()
	return err
}

// grow acquires one n-node chunk through the batch system and hands its
// nodes to the backend.
func (pl *Pilot) grow(p *sim.Proc, eb ElasticBackend, n int) error {
	remaining := pl.agent.bc.Alloc.Deadline - p.Now()
	if remaining <= 0 {
		return fmt.Errorf("core: pilot %s: no walltime left to grow into", pl.ID)
	}
	js, err := saga.NewJobService(pl.res.EffectiveURL(), pl.res.Batch)
	if err != nil {
		return fmt.Errorf("core: pilot %s grow: %w", pl.ID, err)
	}
	eng := pl.session.eng
	ready := sim.NewEvent(eng)
	release := sim.NewEvent(eng)
	var alloc *hpc.Allocation
	job, err := js.Submit(p, saga.JobDescription{
		Executable: "radical-pilot-agent-extend",
		NumNodes:   n,
		WallTime:   remaining,
		Queue:      pl.Desc.Queue,
		Payload: func(cp *sim.Proc, a *hpc.Allocation) {
			// The chunk job only holds the allocation: it signals the
			// grow, then parks until released (shrink or teardown) or
			// interrupted (cancel, walltime).
			_ = sim.OnInterrupt(func() {
				alloc = a
				ready.Trigger()
				cp.Wait(release)
			})
		},
	})
	if err != nil {
		return fmt.Errorf("core: pilot %s grow: %w", pl.ID, err)
	}
	// Register the chunk (with no nodes yet) so a pilot teardown while
	// the chunk waits in the queue cancels it, and watch the job so a
	// chunk dying in the queue wakes us instead of deadlocking.
	ch := &chunk{job: job, release: release}
	pl.chunks = append(pl.chunks, ch)
	eng.SpawnDaemon("pmgr:grow:"+pl.ID, func(wp *sim.Proc) {
		job.Wait(wp)
		ready.Trigger()
	})
	p.Wait(ready)
	if alloc == nil || pl.state.Final() {
		// The chunk died in the queue (alloc nil: its job is already
		// final), or the pilot ended while we waited (teardown has
		// released the registered chunk). Either way, just let go.
		pl.dropChunk(ch)
		release.Trigger()
		if pl.state.Final() {
			return fmt.Errorf("core: pilot %s grow: %w", pl.ID, ErrPilotFinal)
		}
		return fmt.Errorf("core: pilot %s grow: chunk job ended %s", pl.ID, job.State())
	}
	if err := eb.Grow(p, pl.agent.bc, alloc.Nodes); err != nil {
		// The payload is parked on release: waking it returns the
		// nodes to the batch system.
		pl.dropChunk(ch)
		release.Trigger()
		return fmt.Errorf("core: pilot %s grow: %w", pl.ID, err)
	}
	ch.nodes = alloc.Nodes
	return nil
}

// shrinkChunks selects the whole chunks (newest first) totalling exactly
// n nodes, or explains why the shrink is infeasible. Pure: no state
// changes, so Resize can validate before entering PilotResizing.
func (pl *Pilot) shrinkChunks(n int) ([]*chunk, error) {
	var take []*chunk
	sum := 0
	for i := len(pl.chunks) - 1; i >= 0 && sum < n; i-- {
		ch := pl.chunks[i]
		if len(ch.nodes) == 0 {
			continue // still in the queue: nothing to drain
		}
		take = append(take, ch)
		sum += len(ch.nodes)
	}
	if sum < n {
		return nil, fmt.Errorf("core: pilot %s: cannot shrink by %d nodes: only %d grown beyond the base allocation of %d",
			pl.ID, n, sum, pl.Desc.Nodes)
	}
	if sum > n {
		return nil, fmt.Errorf("core: pilot %s: shrink releases whole allocation chunks; %d nodes does not match (nearest chunk boundary: %d)",
			pl.ID, n, sum)
	}
	return take, nil
}

// ShrinkableBy returns the largest node count ≤ n that a shrink can
// actually release as whole newest-first chunks — 0 when nothing is
// grown or even the newest chunk exceeds n. Autoscalers snap their
// shrink deltas through it.
func (pl *Pilot) ShrinkableBy(n int) int {
	sum := 0
	for i := len(pl.chunks) - 1; i >= 0; i-- {
		sz := len(pl.chunks[i].nodes)
		if sz == 0 {
			continue
		}
		if sum+sz > n {
			break
		}
		sum += sz
	}
	return sum
}

// shrink drains the selected chunks — running units finish — and
// releases their jobs back to the batch system.
func (pl *Pilot) shrink(p *sim.Proc, eb ElasticBackend, take []*chunk) error {
	var nodes []*cluster.Node
	for _, ch := range take {
		nodes = append(nodes, ch.nodes...)
	}
	if err := eb.Shrink(p, pl.agent.bc, nodes); err != nil {
		return fmt.Errorf("core: pilot %s shrink: %w", pl.ID, err)
	}
	for _, ch := range take {
		pl.dropChunk(ch)
		ch.release.Trigger()
	}
	return nil
}

// dropChunk removes ch from the pilot's chunk list.
func (pl *Pilot) dropChunk(ch *chunk) {
	for i, cand := range pl.chunks {
		if cand == ch {
			pl.chunks = append(pl.chunks[:i], pl.chunks[i+1:]...)
			return
		}
	}
}

// releaseChunks lets every chunk job go: parked payloads return (the
// batch reclaims their nodes) and chunks still in the queue are
// cancelled. Runs at pilot teardown and Cancel; idempotent.
func (pl *Pilot) releaseChunks() {
	for _, ch := range pl.chunks {
		ch.release.Trigger()
		if len(ch.nodes) == 0 {
			ch.job.Cancel() // never started: cancel it out of the queue
		}
	}
	pl.chunks = nil
}
