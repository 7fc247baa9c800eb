package yarn

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// AppMaster is the protocol handle given to ApplicationMaster code: the
// application-level scheduler the paper describes, responsible for
// "negotiating resources with the YARN Resource Manager as well as for
// managing the execution of the application in the assigned resources".
type AppMaster struct {
	app *Application
	rm  *ResourceManager
	// Container is the AM's own container.
	Container *Container

	registered   bool
	unregistered bool
}

// App returns the application this AM serves.
func (am *AppMaster) App() *Application { return am.app }

// Register announces the AM to the RM (one RPC). Must be called before
// requesting containers. An application that was killed meanwhile stays
// KILLED.
func (am *AppMaster) Register(p *sim.Proc) {
	p.Sleep(am.rm.cfg.RPCLatency)
	am.registered = true
	if am.app.state == AppAccepted {
		am.app.transition(AppRunning)
	}
	am.app.RegisterTime = p.Now()
}

// RequestContainers asks the RM for count containers of the given size,
// optionally preferring specific nodes (data locality). The request is
// satisfied asynchronously on NodeManager heartbeats; receive the
// containers with NextContainer.
func (am *AppMaster) RequestContainers(p *sim.Proc, spec ResourceSpec, count int, preferred []*cluster.Node) error {
	if !am.registered {
		return fmt.Errorf("yarn: AM of app %d requested containers before registering", am.app.ID)
	}
	if count <= 0 {
		return fmt.Errorf("yarn: container count must be positive, got %d", count)
	}
	if spec.MemoryMB <= 0 || spec.VCores <= 0 {
		return fmt.Errorf("yarn: invalid container resource %v", spec)
	}
	p.Sleep(am.rm.cfg.RPCLatency) // allocate() RPC carrying the ask
	var pref map[int]bool
	if len(preferred) > 0 {
		pref = make(map[int]bool, len(preferred))
		for _, n := range preferred {
			pref[n.ID] = true
		}
	}
	am.rm.sched.Add(&Request{
		app:        am.app,
		spec:       spec,
		count:      count,
		preferred:  pref,
		relaxAfter: 2 * len(am.rm.nms), // delay scheduling window
	})
	return nil
}

// NextContainer blocks until the scheduler has assigned a container to
// this application and the AM's allocate poll picks it up.
func (am *AppMaster) NextContainer(p *sim.Proc) *Container {
	c := am.app.allocated.Get(p)
	// The assignment is visible on the AM's next allocate poll.
	p.Sleep(sim.Duration(am.rm.rng.Int63n(int64(am.rm.cfg.AMPoll))))
	return c
}

// Launch starts body inside container c (one NM RPC plus container
// launch overhead, including first-use localization on the node). The
// body runs asynchronously; wait on c.Done for completion.
func (am *AppMaster) Launch(p *sim.Proc, c *Container, body ContainerBody) error {
	if c.state != ContainerAllocated {
		return fmt.Errorf("yarn: container %d is %v, cannot launch", c.ID, c.state)
	}
	if c.App != am.app {
		return fmt.Errorf("yarn: container %d belongs to app %d", c.ID, c.App.ID)
	}
	p.Sleep(am.rm.cfg.RPCLatency) // startContainer RPC to the NM
	rm := am.rm
	c.proc = rm.eng.SpawnNamed((*containerName)(c), func(cp *sim.Proc) {
		defer c.terminal(ContainerCompleted, 0)
		c.state = ContainerLocalizing
		c.nm.localize(cp, am.app)
		cp.Sleep(sim.Jitter(rm.rng, rm.cfg.ContainerLaunch, 0.2))
		c.state = ContainerRunning
		c.StartedAt = cp.Now()
		body(cp, c)
	})
	return nil
}

// ReleaseContainer returns an allocated-but-unlaunched container to the
// cluster.
func (am *AppMaster) ReleaseContainer(p *sim.Proc, c *Container) error {
	if c.state != ContainerAllocated {
		return fmt.Errorf("yarn: container %d is %v, cannot release", c.ID, c.state)
	}
	p.Sleep(am.rm.cfg.RPCLatency)
	c.terminal(ContainerKilled, ExitKilled)
	return nil
}

// KillContainer stops a running container (stopContainer RPC).
func (am *AppMaster) KillContainer(p *sim.Proc, c *Container) error {
	p.Sleep(am.rm.cfg.RPCLatency)
	if c.proc != nil && (c.state == ContainerRunning || c.state == ContainerLocalizing) {
		c.proc.Interrupt(fmt.Errorf("yarn: container %d killed by AM", c.ID))
	}
	c.terminal(ContainerKilled, ExitKilled)
	return nil
}

// Unregister reports the final status and terminates the application.
// The AM runner should return shortly after.
func (am *AppMaster) Unregister(p *sim.Proc, status FinalStatus) {
	if am.unregistered {
		return
	}
	am.unregistered = true
	p.Sleep(am.rm.cfg.RPCLatency)
	state := AppFinished
	switch status {
	case StatusFailed:
		state = AppFailed
	case StatusKilled:
		state = AppKilled
	}
	am.app.finish(state, status)
}
