package yarn

import (
	"fmt"

	"repro/internal/sim"
)

// ContainerState is the lifecycle state of a container.
type ContainerState int

// Container states, following the YARN container state machine.
const (
	ContainerAllocated ContainerState = iota
	ContainerLocalizing
	ContainerRunning
	ContainerCompleted
	ContainerKilled
	ContainerPreempted
)

// String returns the YARN-style state name.
func (s ContainerState) String() string {
	switch s {
	case ContainerAllocated:
		return "ALLOCATED"
	case ContainerLocalizing:
		return "LOCALIZING"
	case ContainerRunning:
		return "RUNNING"
	case ContainerCompleted:
		return "COMPLETE"
	case ContainerKilled:
		return "KILLED"
	case ContainerPreempted:
		return "PREEMPTED"
	default:
		return fmt.Sprintf("ContainerState(%d)", int(s))
	}
}

// Exit codes reported for abnormal completion, matching YARN constants.
const (
	// ExitPreempted is YARN's -102 (container preempted by scheduler).
	ExitPreempted = -102
	// ExitKilled is YARN's -105 (killed by the ApplicationMaster).
	ExitKilled = -105
)

// ContainerBody is the code that runs inside a container.
type ContainerBody func(p *sim.Proc, c *Container)

// Container is one YARN resource allocation bound to a node.
type Container struct {
	ID   int
	App  *Application
	Spec ResourceSpec

	nm    *NodeManager
	state ContainerState
	// Done triggers when the container reaches a terminal state.
	Done     *sim.Event
	ExitCode int

	// AllocatedAt/StartedAt record lifecycle times for the startup
	// benchmarks.
	AllocatedAt sim.Duration
	StartedAt   sim.Duration
	FinishedAt  sim.Duration

	proc *sim.Proc
}

// containerName names a container's process ("yarn:c<ID>:<app name>")
// only when the name is read.
type containerName Container

func (n *containerName) String() string { return fmt.Sprintf("yarn:c%d:%s", n.ID, n.App.Name) }

// amName names an ApplicationMaster container's process
// ("yarn:am:<app name>") only when the name is read.
type amName Container

func (n *amName) String() string { return "yarn:am:" + n.App.Name }

// NodeManager returns the NM hosting this container.
func (c *Container) NodeManager() *NodeManager { return c.nm }

// terminal moves the container to a terminal state, releasing resources
// exactly once. Kernel or process context.
func (c *Container) terminal(state ContainerState, exit int) {
	if c.state == ContainerCompleted || c.state == ContainerKilled || c.state == ContainerPreempted {
		return
	}
	c.state = state
	c.ExitCode = exit
	c.FinishedAt = c.nm.rm.eng.Now()
	delete(c.nm.containers, c.ID)
	c.nm.containerGone()
	c.nm.release(c.Spec)
	delete(c.App.live, c.ID)
	c.Done.Trigger()
}
