package yarn

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sim"
)

// NodeManager manages containers on one compute node. Its heartbeat loop
// is the only place the ResourceManager hands out containers, so the
// heartbeat interval quantizes every allocation — one of the overheads
// the paper measures.
type NodeManager struct {
	rm   *ResourceManager
	node *cluster.Node

	capacity ResourceSpec
	free     ResourceSpec

	// localized records live applications whose resources are already
	// on this node; the first container of an app pays the localization.
	// Entries leave when their application reaches a terminal state.
	localized map[int]bool

	containers map[int]*Container
	stopped    bool
	// decommissioning marks a graceful drain: the NM is no longer
	// offered to the scheduler, so no new containers start here, but
	// live containers run to completion.
	decommissioning bool
	// drained triggers once a decommissioning NM has no live containers.
	drained *sim.Event
}

func newNodeManager(rm *ResourceManager, node *cluster.Node) *NodeManager {
	memMB := node.Spec.MemoryMB - rm.cfg.DaemonMemoryMB
	if memMB < 1024 {
		memMB = node.Spec.MemoryMB // tiny test nodes: no daemon reservation
	}
	cap := ResourceSpec{MemoryMB: memMB, VCores: node.Spec.Cores}
	return &NodeManager{
		rm:         rm,
		node:       node,
		capacity:   cap,
		free:       cap,
		localized:  make(map[int]bool),
		containers: make(map[int]*Container),
	}
}

// Node returns the compute node this NM runs on.
func (nm *NodeManager) Node() *cluster.Node { return nm.node }

// Capacity returns the NM's total allocatable resources.
func (nm *NodeManager) Capacity() ResourceSpec { return nm.capacity }

// Free returns currently unallocated resources.
func (nm *NodeManager) Free() ResourceSpec { return nm.free }

// Containers returns the number of live containers.
func (nm *NodeManager) Containers() int { return len(nm.containers) }

// heartbeatLoop runs as a daemon: on every beat it offers the node to
// the RM scheduler and launches whatever was assigned.
func (nm *NodeManager) heartbeatLoop(p *sim.Proc) {
	for !nm.stopped && !nm.rm.stopped {
		p.Sleep(nm.rm.cfg.NMHeartbeat)
		if nm.stopped || nm.rm.stopped {
			return
		}
		if nm.decommissioning {
			// Draining: heartbeats continue (liveness) but the node is
			// not offered to the scheduler.
			continue
		}
		for _, a := range nm.rm.sched.NodeUpdate(nm) {
			nm.rm.containerAssigned(a.Req, nm)
		}
	}
}

// fits applies the resource calculator: memory always gates; vcores only
// when the deployment does not use the (default) memory-only calculator.
func (nm *NodeManager) fits(spec ResourceSpec, free ResourceSpec) bool {
	if spec.MemoryMB > free.MemoryMB {
		return false
	}
	if nm.rm.cfg.IgnoreVCores {
		return true
	}
	return spec.VCores <= free.VCores
}

// allocate reserves resources for a container. Kernel context.
func (nm *NodeManager) allocate(spec ResourceSpec) error {
	if nm.decommissioning {
		return fmt.Errorf("yarn: node %s is decommissioning", nm.node.Name)
	}
	if !nm.fits(spec, nm.free) {
		return fmt.Errorf("yarn: node %s cannot fit %v (free %v)", nm.node.Name, spec, nm.free)
	}
	nm.free = nm.free.Sub(spec)
	return nil
}

// release returns a container's resources.
func (nm *NodeManager) release(spec ResourceSpec) {
	nm.free = nm.free.Add(spec)
	if nm.free.MemoryMB > nm.capacity.MemoryMB || nm.free.VCores > nm.capacity.VCores {
		panic(fmt.Sprintf("yarn: node %s over-released to %v (capacity %v)", nm.node.Name, nm.free, nm.capacity))
	}
}

// containerGone wakes a pending decommission once the last live
// container has left. Kernel or process context.
func (nm *NodeManager) containerGone() {
	if nm.decommissioning && len(nm.containers) == 0 && nm.drained != nil {
		nm.drained.Trigger()
	}
}

// localize stages application resources onto the node if not yet present.
// Blocks p for the I/O.
func (nm *NodeManager) localize(p *sim.Proc, app *Application) {
	if nm.localized[app.ID] {
		return
	}
	if !app.state.terminal() {
		nm.localized[app.ID] = true
		app.localizedOn = append(app.localizedOn, nm)
	}
	if nm.rm.cfg.Fetcher != nil && nm.rm.cfg.LocalizationBytes > 0 {
		nm.rm.cfg.Fetcher.Fetch(p, nm.node, nm.rm.cfg.LocalizationBytes)
		// Unpacking/linking into the container work dir.
		nm.node.Disk.Write(p, nm.rm.cfg.LocalizationBytes)
	}
}
