package yarn

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// AppState is the ResourceManager-side application state.
type AppState int

// Application states, following the YARN RMApp state machine (collapsed
// to the externally visible ones).
const (
	AppSubmitted AppState = iota
	AppAccepted
	AppRunning
	AppFinished
	AppFailed
	AppKilled
)

// String returns the YARN-style state name.
func (s AppState) String() string {
	switch s {
	case AppSubmitted:
		return "SUBMITTED"
	case AppAccepted:
		return "ACCEPTED"
	case AppRunning:
		return "RUNNING"
	case AppFinished:
		return "FINISHED"
	case AppFailed:
		return "FAILED"
	case AppKilled:
		return "KILLED"
	default:
		return fmt.Sprintf("AppState(%d)", int(s))
	}
}

// FinalStatus is the final status an AM reports at unregistration.
type FinalStatus string

// Final statuses, as in YARN.
const (
	StatusSucceeded FinalStatus = "SUCCEEDED"
	StatusFailed    FinalStatus = "FAILED"
	StatusKilled    FinalStatus = "KILLED"
)

// AMRunner is the ApplicationMaster's main, running inside the AM
// container with the AppMaster protocol handle.
type AMRunner func(p *sim.Proc, am *AppMaster)

// AppDesc describes an application submission.
type AppDesc struct {
	Name string
	// AMResource sizes the ApplicationMaster container (defaults to
	// 1024 MB / 1 vcore, YARN's default).
	AMResource ResourceSpec
	Runner     AMRunner
}

// Application is a submitted YARN application.
type Application struct {
	ID   int
	Name string

	rm     *ResourceManager
	runner AMRunner
	amSpec ResourceSpec

	state       AppState
	finalStatus FinalStatus
	// Done triggers when the application reaches a terminal state.
	Done *sim.Event

	// allocated delivers task containers assigned by the scheduler to
	// the AM's allocate poll.
	allocated *sim.Queue[*Container]

	amContainer *Container
	// live tracks all non-terminal containers including the AM's.
	live map[int]*Container
	// localizedOn lists the NodeManagers holding this application's
	// localized resources; finish drops the app from each of them.
	localizedOn []*NodeManager

	SubmitTime   sim.Duration
	AMStartTime  sim.Duration
	RegisterTime sim.Duration
	FinishTime   sim.Duration
}

// State returns the application state.
func (a *Application) State() AppState { return a.state }

// terminal reports whether s is FINISHED, FAILED or KILLED.
func (s AppState) terminal() bool {
	return s == AppFinished || s == AppFailed || s == AppKilled
}

// liveCounts returns the state's contribution to the ResourceManager's
// pending and running application counts.
func (s AppState) liveCounts() (pending, running int) {
	switch s {
	case AppSubmitted, AppAccepted:
		return 1, 0
	case AppRunning:
		return 0, 1
	}
	return 0, 0
}

// transition moves the application to state, keeping the RM's
// pending/running counts in step. Every state change goes through it.
func (a *Application) transition(state AppState) {
	p0, r0 := a.state.liveCounts()
	p1, r1 := state.liveCounts()
	a.rm.appsPending += p1 - p0
	a.rm.appsRunning += r1 - r0
	a.state = state
}

// Wait blocks p until the application terminates and returns the final
// status.
func (a *Application) Wait(p *sim.Proc) FinalStatus {
	p.Wait(a.Done)
	return a.finalStatus
}

// ClusterMetrics is the snapshot served by the RM's REST API
// (/ws/v1/cluster/metrics), which the paper's RP-YARN agent scheduler
// polls for cluster state.
type ClusterMetrics struct {
	TotalMB         int64
	AllocatedMB     int64
	AvailableMB     int64
	TotalVCores     int
	AllocatedVCores int
	AvailableVCores int
	ActiveNodes     int
	AppsRunning     int
	AppsPending     int
	ContainersAlloc int
	PendingRequests int
}

// ResourceManager is the YARN RM: it tracks NodeManagers, runs the
// scheduler on their heartbeats, and drives application lifecycles.
type ResourceManager struct {
	eng   *sim.Engine
	cfg   Config
	sched *FIFOScheduler
	rng   *rand.Rand

	nms []*NodeManager
	// appsPending/appsRunning count applications in SUBMITTED/ACCEPTED
	// and RUNNING, maintained by Application.transition. The RM keeps
	// no per-application state past a terminal transition.
	appsPending, appsRunning int

	nextApp  int
	nextCont int
	stopped  bool
}

// NewResourceManager deploys a YARN cluster over the given nodes and
// starts the NodeManager heartbeat loops (staggered, as in reality).
func NewResourceManager(e *sim.Engine, cfg Config, nodes []*cluster.Node) (*ResourceManager, error) {
	cfg.fill()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("yarn: need at least one node")
	}
	rm := &ResourceManager{
		eng:   e,
		cfg:   cfg,
		sched: NewFIFOScheduler(),
		rng:   sim.SubRNG(cfg.Seed, "yarn-rm"),
	}
	for _, n := range nodes {
		rm.nms = append(rm.nms, newNodeManager(rm, n))
	}
	// Start heartbeats staggered across one interval so allocation
	// latency averages half a heartbeat, as on a real cluster.
	for i, nm := range rm.nms {
		nm := nm
		offset := sim.Duration(int64(cfg.NMHeartbeat) * int64(i) / int64(len(rm.nms)))
		e.SpawnDaemon(fmt.Sprintf("yarn:nm:%s", nm.node.Name), func(p *sim.Proc) {
			p.Sleep(offset)
			nm.heartbeatLoop(p)
		})
	}
	return rm, nil
}

// NodeManagers returns the NMs in deployment order.
func (rm *ResourceManager) NodeManagers() []*NodeManager { return rm.nms }

// Stop shuts the cluster down: heartbeat loops exit and no further
// submissions are accepted. Running containers finish undisturbed
// (matching the paper's LRM, which stops daemons after the workload).
func (rm *ResourceManager) Stop() { rm.stopped = true }

// AddNodes extends the running cluster: a NodeManager is deployed on
// each given node and starts heartbeating, so the scheduler can place
// containers there from the next beat — the paper's cluster-extension
// mode, where pilot-managed nodes join an existing YARN cluster instead
// of spawning a new one. Returns the new NodeManagers.
func (rm *ResourceManager) AddNodes(nodes []*cluster.Node) ([]*NodeManager, error) {
	if rm.stopped {
		return nil, fmt.Errorf("yarn: resource manager stopped")
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("yarn: AddNodes needs at least one node")
	}
	// Validate the whole batch before registering anything, so a
	// mid-list duplicate cannot leave phantom NMs (registered but never
	// heartbeating) behind.
	seen := make(map[*cluster.Node]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("yarn: node %s listed twice", n.Name)
		}
		seen[n] = true
		for _, nm := range rm.nms {
			if nm.node == n && !nm.stopped {
				return nil, fmt.Errorf("yarn: node %s already runs a NodeManager", n.Name)
			}
		}
	}
	added := make([]*NodeManager, 0, len(nodes))
	for _, n := range nodes {
		nm := newNodeManager(rm, n)
		rm.nms = append(rm.nms, nm)
		added = append(added, nm)
	}
	// Stagger the new heartbeats like the initial deployment's.
	for i, nm := range added {
		nm := nm
		offset := sim.Duration(int64(rm.cfg.NMHeartbeat) * int64(i) / int64(len(added)))
		rm.eng.SpawnDaemon(fmt.Sprintf("yarn:nm:%s", nm.node.Name), func(p *sim.Proc) {
			p.Sleep(offset)
			nm.heartbeatLoop(p)
		})
	}
	rm.eng.Tracef("yarn: %d nodes joined the cluster", len(added))
	return added, nil
}

// NodeManagersFor maps nodes to their live NodeManagers, in the given
// order; nodes without one are skipped.
func (rm *ResourceManager) NodeManagersFor(nodes []*cluster.Node) []*NodeManager {
	var out []*NodeManager
	for _, n := range nodes {
		for _, nm := range rm.nms {
			if nm.node == n && !nm.stopped {
				out = append(out, nm)
				break
			}
		}
	}
	return out
}

// Decommission gracefully removes NodeManagers from the cluster: each is
// immediately withheld from the scheduler (no new containers), then the
// call blocks p until its live containers have finished, and finally the
// NM is dropped from the cluster. Running work is never killed — the
// drain-then-release discipline elastic pilots rely on for Shrink.
func (rm *ResourceManager) Decommission(p *sim.Proc, nms []*NodeManager) {
	for _, nm := range nms {
		nm.decommissioning = true
		nm.drained = sim.NewEvent(rm.eng)
		nm.containerGone() // already idle: trigger immediately
	}
	for _, nm := range nms {
		p.Wait(nm.drained)
		nm.stopped = true
		for i, q := range rm.nms {
			if q == nm {
				rm.nms = append(rm.nms[:i], rm.nms[i+1:]...)
				break
			}
		}
		rm.eng.Tracef("yarn: node %s decommissioned", nm.node.Name)
	}
}

// Submit registers an application and queues its ApplicationMaster
// container request. Blocks p for the submission RPC.
func (rm *ResourceManager) Submit(p *sim.Proc, desc AppDesc) (*Application, error) {
	if rm.stopped {
		return nil, fmt.Errorf("yarn: resource manager stopped")
	}
	if desc.Runner == nil {
		return nil, fmt.Errorf("yarn: application %q has no AM runner", desc.Name)
	}
	amSpec := desc.AMResource
	if amSpec.MemoryMB <= 0 {
		amSpec.MemoryMB = 1024
	}
	if amSpec.VCores <= 0 {
		amSpec.VCores = 1
	}
	p.Sleep(rm.cfg.RPCLatency) // ClientRMService round trip
	rm.nextApp++
	app := &Application{
		ID:         rm.nextApp,
		Name:       desc.Name,
		rm:         rm,
		runner:     desc.Runner,
		amSpec:     amSpec,
		state:      AppSubmitted,
		Done:       sim.NewEvent(rm.eng),
		allocated:  sim.NewQueue[*Container](rm.eng),
		live:       make(map[int]*Container),
		SubmitTime: rm.eng.Now(),
	}
	rm.appsPending++ // born SUBMITTED
	app.transition(AppAccepted)
	rm.sched.Add(&Request{app: app, spec: amSpec, count: 1, isAM: true})
	rm.eng.Tracef("yarn: app %d (%s) accepted", app.ID, app.Name)
	return app, nil
}

// containerAssigned materializes a scheduler assignment. Kernel context
// (NM heartbeat).
func (rm *ResourceManager) containerAssigned(req *Request, nm *NodeManager) {
	if err := nm.allocate(req.spec); err != nil {
		// Scheduler raced with capacity change; requeue one container.
		req.count++
		rm.sched.Add(&Request{app: req.app, spec: req.spec, count: 0, isAM: req.isAM})
		return
	}
	rm.nextCont++
	c := &Container{
		ID:          rm.nextCont,
		App:         req.app,
		Spec:        req.spec,
		nm:          nm,
		state:       ContainerAllocated,
		Done:        sim.NewEvent(rm.eng),
		AllocatedAt: rm.eng.Now(),
	}
	nm.containers[c.ID] = c
	req.app.live[c.ID] = c
	if req.isAM {
		req.app.amContainer = c
		rm.launchAM(c)
		return
	}
	req.app.allocated.Put(c)
}

// launchAM starts the ApplicationMaster inside its container.
func (rm *ResourceManager) launchAM(c *Container) {
	app := c.App
	c.proc = rm.eng.SpawnNamed((*amName)(c), func(p *sim.Proc) {
		defer func() {
			c.terminal(ContainerCompleted, 0)
			if !app.state.terminal() {
				// AM exited without unregistering.
				app.finish(AppFailed, StatusFailed)
			}
		}()
		c.state = ContainerLocalizing
		c.nm.localize(p, app)
		p.Sleep(sim.Jitter(rm.rng, rm.cfg.AMLaunch, 0.2))
		c.state = ContainerRunning
		c.StartedAt = p.Now()
		app.AMStartTime = p.Now()
		am := &AppMaster{app: app, rm: rm, Container: c}
		app.runner(p, am)
	})
}

// Preempt reclaims a running container for the scheduler (the behaviour
// the paper warns YARN applications must tolerate). The container body
// is interrupted and the AM sees exit code ExitPreempted.
func (rm *ResourceManager) Preempt(c *Container) {
	if c.state != ContainerRunning && c.state != ContainerLocalizing {
		return
	}
	if c.proc != nil {
		c.proc.Interrupt(fmt.Errorf("yarn: container %d preempted", c.ID))
	}
	c.terminal(ContainerPreempted, ExitPreempted)
}

// Kill terminates an application: all its containers are killed and the
// app moves to KILLED.
func (rm *ResourceManager) Kill(app *Application) {
	app.finish(AppKilled, StatusKilled)
}

// finish moves the application to a terminal state, reaping containers
// and dropping its localized resources from every node.
func (a *Application) finish(state AppState, status FinalStatus) {
	if a.state.terminal() {
		return
	}
	a.transition(state)
	a.finalStatus = status
	a.FinishTime = a.rm.eng.Now()
	a.rm.sched.RemoveApp(a.ID)
	for _, c := range a.live {
		if c.proc != nil && (c.state == ContainerRunning || c.state == ContainerLocalizing) {
			c.proc.Interrupt(fmt.Errorf("yarn: application %d finished", a.ID))
		}
		c.terminal(ContainerKilled, ExitKilled)
	}
	// Drain containers that were allocated but never picked up.
	for {
		c, ok := a.allocated.TryGet()
		if !ok {
			break
		}
		c.terminal(ContainerKilled, ExitKilled)
	}
	for _, nm := range a.localizedOn {
		delete(nm.localized, a.ID)
	}
	a.localizedOn = nil
	a.Done.Trigger()
	a.rm.eng.Tracef("yarn: app %d (%s) -> %s (%s)", a.ID, a.Name, state, status)
}

// TotalVCores sums the vcore capacity of the cluster's NodeManagers —
// Metrics().TotalVCores without building the snapshot. O(NodeManagers).
func (rm *ResourceManager) TotalVCores() int {
	n := 0
	for _, nm := range rm.nms {
		n += nm.capacity.VCores
	}
	return n
}

// Metrics snapshots cluster state, like the RM REST API. Callers that
// model the HTTP round trip should sleep RPCLatency themselves (the
// agent scheduler does). The cost is O(NodeManagers) plus the
// scheduler's queue, independent of how many applications have run.
func (rm *ResourceManager) Metrics() ClusterMetrics {
	var m ClusterMetrics
	for _, nm := range rm.nms {
		m.TotalMB += nm.capacity.MemoryMB
		m.AvailableMB += nm.free.MemoryMB
		m.TotalVCores += nm.capacity.VCores
		m.AvailableVCores += nm.free.VCores
		m.ContainersAlloc += len(nm.containers)
		m.ActiveNodes++
	}
	m.AllocatedMB = m.TotalMB - m.AvailableMB
	m.AllocatedVCores = m.TotalVCores - m.AvailableVCores
	m.AppsRunning, m.AppsPending = rm.appsRunning, rm.appsPending
	m.PendingRequests = rm.sched.Pending()
	return m
}
